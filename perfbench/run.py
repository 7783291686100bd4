#!/usr/bin/env python3
"""Benchmark of the sparsegames pipeline on one seeded workload.

    python3 perfbench/run.py --workload trap --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``, never from an installed copy.  Each pass runs the pipeline the
way ``sparsegames extract`` does: text -> parse_game ->
compute_winning_region -> most_permissive, then per (method, seed) trial
the extractor, validate_strategy, density, serialize_strategy and, on
strictly alternating games with a player-1 initial position, the Mealy
fold.  Passes repeat until ``--seconds`` is used up; times are medians
over passes, in seconds at reference speed (see ``speed.py``): each pass's
times are divided by the speed factor that a gauge, run between its
trials, measured for it.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs one untraced pass, then traced passes, and reports the
per-layer metrics; its spans go to ``.bench_out/``.  Human-readable lines
come first; the last line of standard output is one JSON object.  Any
correctness failure makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

METHODS = ("random", "smart", "replp", "ilp", "sat")
DENSITY_METHODS = ("random", "smart", "replp")
EXACT_METHODS = ("ilp", "sat")
SETUP_REPEATS = 5
# Exact engines get a deadline, so a regression shows as failed trials, not
# as a run that never ends: 20 s per trial (the slowest takes about 1 s
# today) and 150 s for the whole run.
TRIAL_DEADLINE_S = 20.0
RUN_DEADLINE_S = 150.0
TAIL_BEYOND = 10
# A pass samples the speed gauge at its start, after preparing its games,
# after the first trial that ends this long after the last sample, and at
# its end; the gauge costs a few percent of a pass.
GAUGE_EVERY_S = 0.2


def import_package() -> float:
    """Import sparsegames from this checkout; returns the import time."""
    package_dir = SRC / "sparsegames"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source under {package_dir}")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import sparsegames

    elapsed = perf_counter() - start
    if Path(sparsegames.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"benchmark: sparsegames imported from {sparsegames.__file__}")
    return elapsed


@dataclass
class TrialRecord:
    label: str
    method: str
    seconds: float
    density: int | None
    digest: str
    problems: list[str] = field(default_factory=list)


@dataclass
class InstanceRecord:
    label: str
    positions: int
    edges: int
    winning: int
    pruned: int | None
    note: str


@dataclass
class PassRecord:
    wall: float  # measured, without the gauge's own time
    factor: float  # speed factor of the pass; times / factor = reference seconds
    trials: list[TrialRecord]
    instances: list[InstanceRecord]


def run_trial(
    sg, inst, game, mp, method: str, seed: int, traced: bool, run_deadline: float
) -> TrialRecord:
    deadline = min(time.monotonic() + TRIAL_DEADLINE_S, run_deadline)
    stats = {"stats": {}} if traced else {}
    claimed, certified = None, True
    start = perf_counter()
    try:
        if method == "random":
            strat = sg.random_extract(game, mp, seed)
        elif method == "smart":
            strat = sg.smart_random_extract(game, mp.winning, seed, deadline=deadline)
        elif method == "replp":
            strat = sg.replp_extract(game, mp, deadline=deadline, **stats)
        elif method == "ilp":
            result = sg.ilp_exact_extract(game, mp, warm_seed=seed, deadline=deadline, **stats)
            strat, claimed, certified = result.strategy, result.density, result.certified
        else:
            result = sg.sat_exact_extract(game, mp, warm_seed=seed, deadline=deadline)
            strat, claimed, certified = result.strategy, result.density, result.certified
        verdict = sg.validate_strategy(game, mp, strat)
        dens = sg.density(game, strat)
        text = sg.serialize_strategy(strat)
        if inst.alternating:
            text += sg.serialize_mealy(sg.strategy_to_mealy(game, strat))
    except Exception as exc:  # a failed trial is counted, the pass goes on
        traceback.print_exc(file=sys.stderr)
        return TrialRecord(
            inst.label, method, perf_counter() - start, None, "", [f"{type(exc).__name__}: {exc}"]
        )
    seconds = perf_counter() - start

    problems = []
    if not verdict.winning:
        problems.append("strategy does not validate")
    if not certified:
        problems.append("exact result not certified")
    if claimed is not None and claimed != dens:
        problems.append(f"engine reports density {claimed}, recomputed {dens}")
    if inst.reference is not None:
        if method in EXACT_METHODS and dens != inst.reference:
            problems.append(f"density {dens} is not the minimum {inst.reference}")
        if dens < inst.reference:
            problems.append(f"density {dens} is below the minimum {inst.reference}")
    digest = hashlib.sha256(f"{inst.label} {method} {seed} {dens}\n".encode() + text)
    return TrialRecord(inst.label, method, seconds, dens, digest.hexdigest(), problems)


def run_pass(sg, corpus, gauge, run_deadline: float, tracer=None) -> PassRecord:
    start = perf_counter()
    gauge.take()
    gauge.sample()
    prepared, instances = [], []
    for inst in corpus.instances:
        game = sg.parse_game(inst.text)
        winning = sg.compute_winning_region(game)
        mp = sg.most_permissive(game, winning)
        pruned_size = None
        if inst.solve:
            pruned, mp2 = sg.lp.pruned_context(game, mp)
            sg.search_space_bits(pruned, mp2)
            pruned_size = len(pruned.pos_names)
        prepared.append((inst, game, mp))
        instances.append(
            InstanceRecord(
                inst.label, len(game.pos_names), len(game.edges), len(winning),
                pruned_size, inst.note,
            )
        )
    gauge.sample()
    last_sample = perf_counter()
    trials: list[TrialRecord] = []
    exact: dict[str, list[TrialRecord]] = {}
    for k, (index, method, seed) in enumerate(corpus.schedule):
        inst, game, mp = prepared[index]
        if tracer is None:
            record = run_trial(sg, inst, game, mp, method, seed, False, run_deadline)
        else:
            tracer.instance, tracer.trial = inst.label, k
            with tracer.span(f"trial.{method}"):
                record = run_trial(sg, inst, game, mp, method, seed, True, run_deadline)
            tracer.trial = None
        trials.append(record)
        if method in EXACT_METHODS:
            exact.setdefault(inst.label, []).append(record)
        if perf_counter() - last_sample >= GAUGE_EVERY_S:
            gauge.sample()
            last_sample = perf_counter()
    gauge.sample()
    samples = gauge.take()
    wall = perf_counter() - start - sum(samples)
    for group in exact.values():
        found = {t.density for t in group if t.density is not None}
        if len(found) > 1:
            for t in group:
                t.problems.append(f"exact engines disagree: {sorted(found)}")
    for t in trials:
        for problem in t.problems:
            print(f"FAILED {t.label} {t.method}: {problem}", file=sys.stderr)
    return PassRecord(wall, speed.factor(samples), trials, instances)


def run_passes(sg, corpus, gauge, seconds, started, run_deadline, tracer=None, on_pass=None):
    """Passes until the next one would end after ``seconds`` (at least one)."""
    passes = []
    while True:
        if tracer is not None:
            tracer.reset()
        pass_start = perf_counter()
        record = run_pass(sg, corpus, gauge, run_deadline, tracer)
        passes.append(record)
        if on_pass is not None:
            on_pass(record)
        now = perf_counter()
        if now - started + (now - pass_start) > seconds:
            return passes


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest integer percentile with at least TAIL_BEYOND samples above
    its nearest-rank value; returns (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], p
    return ordered[-1], 100


def end_to_end(passes: list[PassRecord]) -> tuple[dict[str, float | None], dict]:
    """End-to-end metrics as medians over passes, in reference seconds;
    None for a method the workload does not run."""
    first = passes[0]
    ran = {t.method for t in first.trials}
    metrics: dict[str, float | None] = {
        "wall_s": statistics.median(p.wall / p.factor for p in passes),
    }
    for m in METHODS:
        metrics[f"{m}_s"] = (
            statistics.median(
                sum(t.seconds for t in p.trials if t.method == m) / p.factor for p in passes
            )
            if m in ran
            else None
        )
    metrics["op_p50_s"] = statistics.median(
        statistics.median(t.seconds for t in p.trials) / p.factor for p in passes
    )
    tails = [tail([t.seconds / p.factor for t in p.trials]) for p in passes]
    metrics["op_tail_s"] = statistics.median(v for v, _ in tails)
    densities = [
        t.density
        for t in first.trials
        if t.method in DENSITY_METHODS and t.density is not None
    ]
    metrics["density_mean"] = statistics.fmean(densities) if densities else None
    info = {
        "percentile": tails[0][1],
        "per_pass": len(first.trials),
        "raw_wall_s": statistics.median(p.wall for p in passes),
        "factor": statistics.median(p.factor for p in passes),
    }
    return metrics, info


def check_digests(passes: list[PassRecord]) -> int:
    """Trials whose strategy digest differs from the first pass."""
    reference = [t.digest for t in passes[0].trials]
    mismatches = 0
    for k, p in enumerate(passes[1:], 1):
        for j, (a, t) in enumerate(zip(reference, p.trials)):
            if a != t.digest:
                mismatches += 1
                print(
                    f"FAILED pass {k} trial {j}: strategy digest differs from pass 0",
                    file=sys.stderr,
                )
    return mismatches


def fmt(value, unit: str) -> str:
    return "n/a (not run on this workload)" if value is None else f"{value:.6g} {unit}"


def traced_run(sg, corpus, gauge, workload, seed, seconds, started, run_deadline):
    """One untraced pass, then traced passes; returns all passes and the
    per-layer metrics (medians over the traced passes, times in reference
    seconds)."""
    from tracing import Tracer, layer_metrics

    untraced = run_pass(sg, corpus, gauge, run_deadline)
    tracer = Tracer()
    layers, spans = [], []

    def collect(record):
        layer = layer_metrics(tracer.spans, tracer.try_delete)
        for name in layer:
            if name.endswith((".s", "_s")):
                layer[name] /= record.factor
        layers.append(layer)
        spans.append(tracer.spans)

    tracer.install()
    try:
        traced = run_passes(sg, corpus, gauge, seconds, started, run_deadline, tracer, collect)
    finally:
        tracer.uninstall()
    tracer.write(ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl", spans)

    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    base, _ = end_to_end([untraced])
    for m in ("random", "replp", "ilp", "sat"):
        metrics[f"method.{m}_s"] = base[f"{m}_s"] or 0.0
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall / p.factor for p in traced) - untraced.wall / untraced.factor
    )

    print(f"{len(traced)} traced passes after 1 untraced pass; spans in .bench_out/")
    for rec in untraced.instances:
        if rec.pruned is None:
            continue
        calls, kept = tracer.try_delete.get(rec.label, (0, 0))
        ratio = f"{kept / calls:.4f}" if calls else "n/a"
        print(
            f"game {rec.label}: |V|={rec.positions} |E|={rec.edges} winning={rec.winning} "
            f"pruned={rec.pruned} try_delete.kept_ratio={ratio} {rec.note}".rstrip()
        )
    ilp_trials = sum(1 for t in untraced.trials if t.method == "ilp")
    print(
        f"check: lp_solve calls={metrics['lp.lp_solve.calls']:g} "
        f"sat_solve calls={metrics['sat.sat_solve.calls']:g} "
        f"ilp.nodes={metrics['ilp.nodes']:g} for {ilp_trials} ilp trials; "
        f"tracing overhead {metrics['trace.overhead_s']:.4f} s per pass"
    )
    return [untraced] + traced, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("trap", "setcover", "scale"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    run_deadline = time.monotonic() + RUN_DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gauge = speed.Gauge()
    import_s = import_package()
    import_factor = speed.factor([gauge.sample()])
    import sparsegames as sg

    import corpus as corpus_mod

    builds, corpora = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        corpora.append(corpus_mod.build(args.workload, args.seed))
        builds.append((perf_counter() - start, speed.factor([gauge.sample()])))
    if any(c != corpora[0] for c in corpora):
        raise SystemExit("benchmark: corpus generation is not deterministic")
    corpus = corpora[0]
    # The import and each build take the factor of the gauge sample right
    # after them, while their own work still fills the cache, as in a pass.
    setup_raw = import_s + statistics.median(b for b, _ in builds)
    setup_s = import_s / import_factor + statistics.median(b / f for b, f in builds)
    print(
        f"workload {args.workload} seed {args.seed}: {len(corpus.instances)} games, "
        f"{len(corpus.schedule)} trials per pass"
    )
    # The objects left by the imports, the gauge and the set-up (about 30k)
    # go to the collector's permanent generation.  Otherwise every full
    # collection walks them, 15-30 ms at points of a pass that move from run
    # to run, where now it walks only what the passes allocate.
    gc.collect()
    gc.freeze()

    started = perf_counter()
    if args.trace:
        passes, metrics = traced_run(
            sg, corpus, gauge, args.workload, args.seed, args.seconds, started, run_deadline
        )
        wanted = spec["per_layer"]
    else:
        passes = run_passes(sg, corpus, gauge, args.seconds, started, run_deadline)
        metrics, info = end_to_end(passes)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]

    attempted = sum(len(p.trials) for p in passes)
    failed = sum(1 for p in passes for t in p.trials if t.problems) + check_digests(passes)
    if args.trace:
        for entry in wanted:
            print(f"{entry['name']} {metrics[entry['name']]:.6g} {entry['unit']}")
    else:
        print(
            f"{len(passes)} passes in {perf_counter() - started:.1f} s; times below are "
            f"reference seconds: measured / speed factor (median factor "
            f"{info['factor']:.4f}, measured wall_s {info['raw_wall_s']:.6g} s)"
        )
        print(
            f"setup_s {fmt(setup_s, 's')} (import {import_s:.4f} s "
            f"+ median of {SETUP_REPEATS} corpus builds = {setup_raw:.4f} s measured; "
            f"import speed factor {import_factor:.4f})"
        )
        for name in ("wall_s", "random_s", "smart_s", "replp_s", "ilp_s", "sat_s", "op_p50_s"):
            print(f"{name} {fmt(metrics[name], 's')}")
        print(
            f"op_tail_s {fmt(metrics['op_tail_s'], 's')} "
            f"(p{info['percentile']} of {info['per_pass']} trials per pass)"
        )
        print(f"failed_share {failed / attempted:.6g} ratio ({failed} of {attempted} trials)")
        print(f"density_mean {fmt(metrics['density_mean'], 'positions')}")
        print(f"peak_rss_mb {fmt(metrics['peak_rss_mb'], 'MB')}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in wanted
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
