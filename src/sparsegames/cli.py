"""Command-line harness.

Subcommands:

* ``solve``    print game statistics and the winning region size.
* ``extract``  run one extraction method for several seeded trials with
  per-trial validation, wall-clock timeouts, and mean/stddev reporting.
* ``bench``    run a method matrix over a directory of game files and
  emit a CSV/JSON table.
* ``gen``      write generator outputs as game files.
* ``oracle``   debugging aid: brute-force minimum density and the local
  optimum densities (guarded exhaustive search).

Exit codes: 0 ok, 1 usage or I/O error, or a reduced LP whose dense
tableau exceeds ``LP_TABLEAU_BYTES`` (``replp``, ``ilp``, ``sat`` and
``--dump-lp``; ``bench`` still writes its table, with ``too_large`` in
that method's cells), 2 initial position losing, 3 (``extract`` only) a
``smart`` or ``replp`` trial timed out before it had a strategy
(``t/o``), or an exact engine's budget or deadline ran out and it
returned its incumbent uncertified, 4 a trial's strategy failed
validation or its engine claimed a density other than the strategy's
(``invalid``); 4 takes precedence over 1 and 3.  ``bench`` never exits
3: it exits 0 when its cells read ``t/o`` or are uncertified.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import InitLosingError, LpTooLargeError, SparseGamesError, TimeoutExceededError
from .game import (
    MostPermissiveStrategy,
    SafetyGame,
    compute_winning_region,
    density,
    most_permissive,
    parse_game,
    search_space_bits,
    serialize_game,
    serialize_strategy,
    validate_strategy,
)
from .generators import gen_adversarial, gen_chain, gen_random
from .heuristics import random_extract, smart_random_extract
from .ilp import ilp_exact_extract
from .lp import encode_lp, format_lp, pruned_context, reduced_problem, replp_extract
from .oracle import brute_force_min_density, enumerate_local_optima
from .sat import encode_cnf, sat_exact_extract, to_dimacs

METHODS = ("random", "smart", "replp", "ilp", "sat")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INIT_LOSING = 2
EXIT_TIMEOUT = 3
EXIT_INVALID = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass
class TrialRecord:
    seed: int
    timed_out: bool
    density: int | None = None
    time_secs: float = 0.0
    valid: bool = False
    certified: bool = True
    strategy: str = ""


def _run_trial(
    game: SafetyGame,
    mp: MostPermissiveStrategy,
    method: str,
    seed: int,
    timeout_secs: float | None,
) -> TrialRecord:
    # A non-positive timeout disables the wall clock.
    if timeout_secs is not None and timeout_secs <= 0:
        timeout_secs = None
    deadline = time.monotonic() + timeout_secs if timeout_secs else None
    start = time.perf_counter()
    certified, claimed = True, None
    try:
        if method == "random":
            strat = random_extract(game, mp, seed)
        elif method == "smart":
            strat = smart_random_extract(game, mp.winning, seed, deadline=deadline)
        elif method == "replp":
            strat = replp_extract(game, mp, deadline=deadline)
        elif method == "ilp":
            result = ilp_exact_extract(game, mp, deadline=deadline)
            strat, certified, claimed = result.strategy, result.certified, result.density
        elif method == "sat":
            result = sat_exact_extract(game, mp, deadline=deadline)
            strat, certified, claimed = result.strategy, result.certified, result.density
    except TimeoutExceededError:
        return TrialRecord(
            seed, True, time_secs=time.perf_counter() - start, certified=False
        )
    elapsed = time.perf_counter() - start
    dens = density(game, strat)
    # A trial is valid when its strategy wins and any density its engine
    # claims is the strategy's own.
    valid = validate_strategy(game, mp, strat).winning and claimed in (None, dens)
    return TrialRecord(
        seed,
        False,
        density=dens,
        time_secs=elapsed,
        valid=valid,
        certified=certified,
        strategy=serialize_strategy(strat).decode(),
    )


def _mean_std(values: list[float]) -> tuple[float | None, float | None]:
    """Mean and sample stddev; ``None`` for both when no trial completed,
    so the JSON report holds ``null`` rather than a non-standard ``NaN``."""
    if not values:
        return None, None
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


def _invalid(trial: dict) -> bool:
    """A trial that returned a strategy but is not valid (see :func:`_run_trial`)."""
    return not (trial["timed_out"] or trial["valid"])


def _fmt(value: float | None, template: str, missing: str = "n/a") -> str:
    return missing if value is None else template.format(value)


def _load_game(path: str) -> SafetyGame:
    return parse_game(Path(path).read_bytes())


def _solve_stats(game: SafetyGame) -> tuple[dict, MostPermissiveStrategy | None]:
    """Game statistics, and the most-permissive strategy when init wins."""
    winning = compute_winning_region(game)
    p0, a0 = game.pos_owner.count(0), game.act_owner.count(0)
    stats = {
        "positions0": p0,
        "positions1": len(game.pos_owner) - p0,
        "actions0": a0,
        "actions1": len(game.act_owner) - a0,
        "winning": len(winning),
        "init_winning": game.init in winning,
        "search_space_bits": None,
    }
    if not stats["init_winning"]:
        return stats, None
    mp = most_permissive(game, winning)
    pruned, mp2 = pruned_context(game, mp)
    stats["search_space_bits"] = search_space_bits(pruned, mp2)
    return stats, mp


def cmd_solve(args) -> int:
    game = _load_game(args.game)
    stats, _ = _solve_stats(game)
    for key in ("positions0", "positions1", "actions0", "actions1", "winning"):
        print(f"{key} {stats[key]}")
    print(f"init_winning {'yes' if stats['init_winning'] else 'no'}")
    bits = stats["search_space_bits"]
    print(f"search_space_bits {'n/a' if bits is None else f'{bits:.4f}'}")
    if not stats["init_winning"]:
        print("init losing")
        return EXIT_INIT_LOSING
    return EXIT_OK


def _extract_report(
    game_path: str,
    game: SafetyGame,
    mp: MostPermissiveStrategy,
    method: str,
    seed: int,
    runs: int,
    timeout_secs: float | None,
) -> dict:
    trials = [_run_trial(game, mp, method, seed + i, timeout_secs) for i in range(runs)]
    completed = [t for t in trials if not t.timed_out and t.valid]
    dens_mean, dens_std = _mean_std([float(t.density) for t in completed])
    time_mean, time_std = _mean_std([t.time_secs for t in completed])
    return {
        "game": game_path,
        "method": method,
        "seed": seed,
        "runs": runs,
        "timeout_secs": timeout_secs,
        "trials": [asdict(t) for t in trials],
        "density_mean": dens_mean,
        "density_stddev": dens_std,
        "time_mean_secs": time_mean,
        "time_stddev_secs": time_std,
    }


def _write_extract_csv(report: dict, path: str) -> None:
    header = "row seed density time_secs valid certified timed_out density_stddev time_stddev"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, header.split(), restval="", extrasaction="ignore")
        writer.writeheader()
        for t in report["trials"]:
            dens = "t/o" if t["timed_out"] else t["density"]
            writer.writerow(
                {**t, "row": "trial", "density": dens, "time_secs": f"{t['time_secs']:.6f}"}
            )
        writer.writerow(
            {
                "row": "summary",
                "seed": report["seed"],
                "density": _fmt(report["density_mean"], "{:.6f}", ""),
                "time_secs": _fmt(report["time_mean_secs"], "{:.6f}", ""),
                "density_stddev": _fmt(report["density_stddev"], "{:.6f}", ""),
                "time_stddev": _fmt(report["time_stddev_secs"], "{:.6f}", ""),
            }
        )


def cmd_extract(args) -> int:
    game = _load_game(args.game)
    mp = most_permissive(game, compute_winning_region(game))

    if args.dump_cnf or args.dump_lp:
        reduced = reduced_problem(game, mp)
        offset = f"offset {reduced.offset}: forced player-0 positions; density >= optimum + offset"
        # The LP, the one encoding that can be refused, is built before any write.
        lp_text = f"\\ {offset}\n" + format_lp(encode_lp(game, reduced)) if args.dump_lp else None
        if args.dump_cnf:
            cnf, var_map = encode_cnf(game, reduced)
            comments = tuple(f"var {v} = position {p}" for p, v in sorted(var_map.items()))
            Path(args.dump_cnf).write_text(to_dimacs(cnf, (offset, *comments)))
        if args.dump_lp:
            Path(args.dump_lp).write_text(lp_text)

    report = _extract_report(
        args.game, game, mp, args.method, args.seed, args.runs,
        args.timeout_secs,
    )
    for t in report["trials"]:
        cell = "t/o" if t["timed_out"] else t["density"]
        flag = "" if t["certified"] else " (uncertified)"
        flag += " (invalid)" if _invalid(t) else ""
        print(f"trial seed={t['seed']} density={cell} time={t['time_secs']:.4f}s{flag}")
    print(
        f"density mean={_fmt(report['density_mean'], '{:.4f}')}"
        f" stddev={_fmt(report['density_stddev'], '{:.4f}')}"
    )
    print(
        f"time mean={_fmt(report['time_mean_secs'], '{:.4f}s')}"
        f" stddev={_fmt(report['time_stddev_secs'], '{:.4f}s')}"
    )
    best = min(
        (t for t in report["trials"] if not t["timed_out"] and t["valid"]),
        key=lambda t: t["density"],
        default=None,
    )
    if best is not None:
        sys.stdout.write(best["strategy"])
    if args.json:
        Path(args.json).write_text(
            json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        )
    if args.csv:
        _write_extract_csv(report, args.csv)
    if any(map(_invalid, report["trials"])):
        return EXIT_INVALID
    if any(t["timed_out"] or not t["certified"] for t in report["trials"]):
        return EXIT_TIMEOUT
    return EXIT_OK


_BENCH_FIELDS = (
    "benchmark", "positions0", "positions1", "actions0", "actions1",
    "search_space_bits",
)
#: Per-method bench metrics, named after the `_extract_report` keys; each
#: method also gets a ``certified`` column.
_BENCH_METRICS = ("density_mean", "time_mean_secs", "density_stddev")
_BENCH_COLUMNS = _BENCH_METRICS + ("certified",)


def cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods or len(set(methods)) < len(methods) or not set(methods) <= set(METHODS):
        print(
            f"--methods takes distinct names from {','.join(METHODS)}, not {args.methods!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if not Path(args.corpus).is_dir():
        print(f"corpus {args.corpus!r} is not a directory", file=sys.stderr)
        return EXIT_USAGE
    corpus = sorted(Path(args.corpus).glob("*.txt"))
    table: list[dict] = []
    invalid = too_large = False
    for path in corpus:
        game = parse_game(path.read_bytes())
        stats, mp = _solve_stats(game)
        bits = stats["search_space_bits"]
        row: dict = {
            "benchmark": path.stem,
            "positions0": stats["positions0"],
            "positions1": stats["positions1"],
            "actions0": stats["actions0"],
            "actions1": stats["actions1"],
            "search_space_bits": "n/a" if bits is None else round(bits, 4),
        }
        if mp is None:
            row.update({f"{m}_{k}": "losing" for m in methods for k in _BENCH_COLUMNS})
            table.append(row)
            continue
        for m in methods:
            try:
                rep = _extract_report(
                    str(path), game, mp, m, args.seed, args.runs, args.timeout_secs
                )
            except LpTooLargeError as exc:
                print(f"error: {path.stem}: {m}: {exc}", file=sys.stderr)
                row.update({f"{m}_{k}": "too_large" for k in _BENCH_COLUMNS})
                too_large = True
                continue
            if any(map(_invalid, rep["trials"])):
                cell, invalid = "invalid", True
            else:
                cell = "t/o" if any(t["timed_out"] for t in rep["trials"]) else None
            for k in _BENCH_METRICS:
                row[f"{m}_{k}"] = cell or round(rep[k], 6)
            row[f"{m}_certified"] = all(t["certified"] for t in rep["trials"])
        table.append(row)

    fields = list(_BENCH_FIELDS) + [f"{m}_{k}" for m in methods for k in _BENCH_COLUMNS]
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fields)
    writer.writeheader()
    for row in table:
        writer.writerow(row)
    csv_text = out.getvalue()
    sys.stdout.write(csv_text)
    if args.csv:
        Path(args.csv).write_text(csv_text)
    if args.json:
        Path(args.json).write_text(
            json.dumps(
                {"columns": fields, "rows": table}, indent=2, sort_keys=True,
                allow_nan=False,
            )
        )
    return EXIT_INVALID if invalid else EXIT_USAGE if too_large else EXIT_OK


def cmd_gen(args) -> int:
    try:
        if args.family == "chain":
            game = gen_chain(args.n)
        elif args.family == "adversarial":
            game = gen_adversarial(args.n)
        else:
            game = gen_random(args.seed, args.n0, args.n1, args.k)
    except ValueError as exc:  # a size out of the family's range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    data = serialize_game(game)
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.write(data.decode())
    return EXIT_OK


def cmd_oracle(args) -> int:
    game = _load_game(args.game)
    mp = most_permissive(game, compute_winning_region(game))
    best, witness = brute_force_min_density(game, mp)
    optima = enumerate_local_optima(game)
    print(f"minimum_density {best}")
    sys.stdout.write(serialize_strategy(witness).decode())
    print(f"local_optimum_densities {sorted(optima)}")
    return EXIT_OK


def _runs(text: str) -> int:
    runs = int(text)
    if runs < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return runs


def _seconds(text: str) -> float:
    secs = float(text)
    if not math.isfinite(secs):
        raise argparse.ArgumentTypeError("must be a finite number")
    return secs


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparsegames", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a game and print statistics")
    p_solve.add_argument("game")
    p_solve.set_defaults(func=cmd_solve)

    p_extract = sub.add_parser("extract", help="extract sparse strategies")
    p_extract.add_argument("game")
    p_extract.add_argument("--method", required=True, choices=METHODS)
    p_extract.add_argument("--seed", type=int, default=0)
    p_extract.add_argument("--runs", type=_runs, default=1)
    p_extract.add_argument("--timeout-secs", type=_seconds, default=600.0)
    p_extract.add_argument("--json")
    p_extract.add_argument("--csv")
    p_extract.add_argument("--dump-cnf")
    p_extract.add_argument("--dump-lp")
    p_extract.set_defaults(func=cmd_extract)

    p_bench = sub.add_parser("bench", help="benchmark a corpus directory")
    p_bench.add_argument("corpus")
    p_bench.add_argument("--methods", default=",".join(METHODS))
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--runs", type=_runs, default=5)
    p_bench.add_argument("--timeout-secs", type=_seconds, default=600.0)
    p_bench.add_argument("--json")
    p_bench.add_argument("--csv")
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen", help="emit generator games as files")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_chain = gen_sub.add_parser("chain")
    g_chain.add_argument("n", type=int)
    g_chain.add_argument("--out")
    g_adv = gen_sub.add_parser("adversarial")
    g_adv.add_argument("n", type=int)
    g_adv.add_argument("--out")
    g_rand = gen_sub.add_parser("random")
    g_rand.add_argument("--seed", type=int, required=True)
    g_rand.add_argument("--n0", type=int, required=True)
    g_rand.add_argument("--n1", type=int, required=True)
    g_rand.add_argument("--k", type=int, required=True)
    g_rand.add_argument("--out")
    p_gen.set_defaults(func=cmd_gen)

    p_oracle = sub.add_parser("oracle", help="debug: brute-force ground truth")
    p_oracle.add_argument("game")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InitLosingError:
        print("init losing", file=sys.stderr)
        return EXIT_INIT_LOSING
    except (SparseGamesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
