"""In-memory span tracing around the package's public functions.

The tracer replaces each traced function at every ``sparsegames`` module
attribute that holds it, which is where the engines look their
collaborators up (``sparsegames.ilp.lp_solve``, ``sparsegames.sat.sat_solve``
and so on), so calls between modules are seen without editing the
package.  ``Arena.try_delete`` runs thousands of times per extraction and
is counted, not spanned.

A span is (id, name, start, end, parent id, trial id, self seconds,
attributes); self time is the duration minus the time covered by child
spans.  Attributes are read from the call's arguments and result after
the span has ended.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from sparsegames.game import Arena
from sparsegames.lp import INTEGRALITY_EPS


def _lp_attrs(args, kwargs, result):
    problem = args[0]
    m, n = problem.rows.shape[0], len(problem.var_names)
    values = result.values
    fractional = values is not None and bool(
        ((values > INTEGRALITY_EPS) & (values < 1.0 - INTEGRALITY_EPS)).any()
    )
    # The dense simplex allocates an m x (n + 2m) float64 tableau.
    return {"tableau_bytes": m * (n + 2 * m) * 8 if m else 0, "fractional": fractional}


def _replp_attrs(args, kwargs, result):
    stats = kwargs.get("stats")
    return None if stats is None else {"rounds": stats["rounds"]}


def _ilp_attrs(args, kwargs, result):
    stats = kwargs.get("stats")
    out = {"lp_solves": result.work}
    if stats is not None:
        out["nodes"] = len(stats["nodes"])
    return out


# (module, function, attribute reader or None)
TRACED = (
    ("game", "parse_game", None),
    ("game", "compute_winning_region", None),
    ("game", "most_permissive", None),
    ("game", "validate_strategy", None),
    ("game", "density", None),
    ("game", "serialize_strategy", None),
    ("heuristics", "random_extract", None),
    ("heuristics", "smart_random_extract", None),
    ("lp", "pruned_context", None),
    ("lp", "build_relaxation", lambda a, k, r: {"rows": r.rows.shape[0]}),
    ("lp", "lp_solve", _lp_attrs),
    ("lp", "decode_support", None),
    ("lp", "replp_extract", _replp_attrs),
    ("ilp", "ilp_exact_extract", _ilp_attrs),
    ("sat", "build_cnf", lambda a, k, r: {"clauses": len(r[0].clauses)}),
    ("sat", "encode_at_most_k", lambda a, k, r: {"clauses": len(r[0])}),
    ("sat", "sat_solve", lambda a, k, r: {"sat": r.status == "sat"}),
    ("sat", "sat_exact_extract", None),
    ("mealy", "strategy_to_mealy", lambda a, k, r: {"states": len(r.states)}),
    ("mealy", "serialize_mealy", None),
)


class Tracer:
    """Collects spans and ``try_delete`` counts while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.trial: int | None = None
        self.instance = ""
        self.try_delete: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self) -> tuple[int, int | None, list]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        return sid, parent, frame

    def _close(self, sid, parent, frame, name, start, end, attrs) -> None:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append(
            (sid, name, start, end, parent, self.trial, duration - frame[1], attrs)
        )

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        sid, parent, frame = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, frame, name, start, perf_counter(), None)

    def _wrap(self, name, fn, read_attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, frame = self._open()
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                attrs = None
                if read_attrs is not None and result is not None:
                    attrs = read_attrs(args, kwargs, result)
                self._close(sid, parent, frame, name, start, end, attrs)

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "sparsegames" or name.startswith("sparsegames.")
        ]
        for home, fname, read_attrs in TRACED:
            original = getattr(sys.modules[f"sparsegames.{home}"], fname)
            traced = self._wrap(f"{home}.{fname}", original, read_attrs)
            for module in modules:
                if getattr(module, fname, None) is original:
                    self._patches.append((module, fname, original))
                    setattr(module, fname, traced)

        original_try_delete = Arena.try_delete
        counts = self.try_delete

        @functools.wraps(original_try_delete)
        def try_delete(arena, v):
            kept = original_try_delete(arena, v)
            c = counts[self.instance]
            c[0] += 1
            c[1] += kept
            return kept

        self._patches.append((Arena, "try_delete", original_try_delete))
        Arena.try_delete = try_delete

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def reset(self) -> None:
        """Forget spans and counts, keeping the installation."""
        self.spans = []
        self.try_delete.clear()

    def write(self, path: Path, passes: list[list[tuple]]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "name", "start", "end", "parent", "trial", "self_s", "attrs")
        with path.open("w") as fh:
            for k, spans in enumerate(passes):
                for span in spans:
                    fh.write(json.dumps({"pass": k, **dict(zip(fields, span))}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[tuple], try_delete: dict[str, list[int]]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans and counts.  A layer
    that did no work reports 0 for its times, counts and ratios."""
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def total(name):
        return sum(s[3] - s[2] for s in by_name[name])

    def self_total(name):
        return sum(s[6] for s in by_name[name])

    def attr_values(name, key):
        return [s[7][key] for s in by_name[name] if s[7] and key in s[7]]

    out: dict[str, float] = {}
    for name in (
        "game.parse_game", "game.compute_winning_region", "game.most_permissive",
        "game.validate_strategy", "game.density", "game.serialize_strategy",
        "lp.pruned_context", "lp.build_relaxation", "lp.lp_solve", "lp.decode_support",
        "sat.build_cnf", "sat.encode_at_most_k", "sat.sat_solve",
        "mealy.strategy_to_mealy", "mealy.serialize_mealy",
    ):
        out[f"{name}.s"] = total(name)
    for name in (
        "heuristics.smart_random_extract", "heuristics.random_extract",
        "lp.replp_extract", "ilp.ilp_exact_extract", "sat.sat_exact_extract",
    ):
        out[f"{name}.self_s"] = self_total(name)
    for name in (
        "game.validate_strategy", "game.density", "heuristics.smart_random_extract",
        "lp.pruned_context", "lp.lp_solve", "sat.sat_solve",
    ):
        out[f"{name}.calls"] = len(by_name[name])

    attempted = sum(c[0] for c in try_delete.values())
    kept = sum(c[1] for c in try_delete.values())
    out["game.Arena.try_delete.calls"] = attempted
    out["game.Arena.try_delete.kept_ratio"] = _share(kept, attempted)

    out["lp.build_relaxation.max_rows"] = max(attr_values("lp.build_relaxation", "rows"), default=0)
    out["lp.tableau_bytes_max"] = max(attr_values("lp.lp_solve", "tableau_bytes"), default=0)
    lp_times = [s[3] - s[2] for s in by_name["lp.lp_solve"]]
    out["lp.lp_solve.p50_s"] = statistics.median(lp_times) if lp_times else 0.0
    out["lp.lp_solve.max_s"] = max(lp_times, default=0.0)
    fractional = attr_values("lp.lp_solve", "fractional")
    out["lp.lp_solve.fractional_share"] = _share(sum(fractional), len(fractional))
    # Root LP of each ilp call: its first lp_solve child.
    ilp_ids = {s[0] for s in by_name["ilp.ilp_exact_extract"]}
    roots: dict[int, tuple] = {}
    for s in by_name["lp.lp_solve"]:
        if s[4] in ilp_ids and s[4] not in roots:
            roots[s[4]] = s
    out["lp.lp_solve.root_fractional_share"] = _share(
        sum(1 for s in roots.values() if s[7] and s[7]["fractional"]), len(roots)
    )
    out["lp.replp_extract.rounds"] = sum(attr_values("lp.replp_extract", "rounds"))

    nodes = sum(attr_values("ilp.ilp_exact_extract", "nodes"))
    lp_solves = sum(attr_values("ilp.ilp_exact_extract", "lp_solves"))
    out["ilp.nodes"] = nodes
    out["ilp.lp_solves"] = lp_solves
    out["ilp.nodes_per_lp"] = _share(nodes, lp_solves)

    out["sat.build_cnf.clauses"] = sum(attr_values("sat.build_cnf", "clauses"))
    out["sat.encode_at_most_k.clauses"] = sum(attr_values("sat.encode_at_most_k", "clauses"))
    out["sat.sat_solve.max_s"] = max((s[3] - s[2] for s in by_name["sat.sat_solve"]), default=0.0)
    outcomes = attr_values("sat.sat_solve", "sat")
    out["sat.sat_solve.sat_ratio"] = _share(sum(outcomes), len(outcomes))

    out["mealy.strategy_to_mealy.states"] = sum(attr_values("mealy.strategy_to_mealy", "states"))
    return out
