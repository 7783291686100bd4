"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import json
import math
import time

import pytest

import sparsegames as sg
from sparsegames.cli import main
from sparsegames.lp import pruned_context

from conftest import full_relaxation, solvable_random_games

METHOD_NAMES = ("random", "smart", "replp", "ilp", "sat")


def _mp(game):
    return sg.most_permissive(game, sg.compute_winning_region(game))


def _extract(method, game, winning, mp, seed):
    if method == "random":
        return sg.random_extract(game, mp, seed)
    if method == "smart":
        return sg.smart_random_extract(game, winning, seed)
    if method == "replp":
        return sg.replp_extract(game, mp)
    if method == "ilp":
        return sg.ilp_exact_extract(game, mp).strategy
    return sg.sat_exact_extract(game, mp).strategy


def _criterion_corpus():
    games = solvable_random_games(200, 5, 5, 2, start_seed=0, max_bits=16)
    games += [
        (g, sg.compute_winning_region(g), _mp(g))
        for g in [sg.gen_chain(n) for n in range(1, 7)]
    ]
    games += [
        (g, sg.compute_winning_region(g), _mp(g))
        for g in [sg.gen_adversarial(i) for i in range(1, 5)]
    ]
    return games


def test_c01_exact_engines_match_brute_force_oracle():
    start = time.perf_counter()
    corpus = _criterion_corpus()
    for game, winning, mp in corpus:
        pruned, mp2 = pruned_context(game, mp)
        assert sg.search_space_bits(pruned, mp2) <= 16
        best, _ = sg.brute_force_min_density(game, mp)
        ilp = sg.ilp_exact_extract(game, mp)
        sat = sg.sat_exact_extract(game, mp)
        assert ilp.certified and sat.certified
        assert ilp.density == best
        assert sat.density == best
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 1: ilp and sat match the brute-force minimum on "
        f"{len(corpus)} games (tolerance 0) in {elapsed:.1f}s"
    )


def test_c02_cross_engine_agreement():
    corpus = _criterion_corpus()
    corpus += solvable_random_games(100, 6, 6, 3, start_seed=10_000)
    for game, winning, mp in corpus:
        a = sg.ilp_exact_extract(game, mp)
        b = sg.sat_exact_extract(game, mp)
        assert a.density == b.density
    print(
        f"\nPASS criterion 2: ilp and sat densities identical on "
        f"{len(corpus)} solvable games (tolerance 0)"
    )


def test_c03_every_method_emits_valid_strategies():
    corpus = solvable_random_games(500, 5, 5, 2, start_seed=20_000)
    checked = 0
    for idx, (game, winning, mp) in enumerate(corpus):
        for method in METHOD_NAMES:
            strat = _extract(method, game, winning, mp, idx)
            assert sg.validate_strategy(game, mp, strat).winning, (method, idx)
            checked += 1
    print(
        f"\nPASS criterion 3: {checked} strategies "
        f"(5 methods x 500 games) all validate as winning"
    )


def test_c04_heuristic_bounds_and_local_optimality():
    corpus = solvable_random_games(500, 5, 5, 2, start_seed=20_000, max_bits=16)
    locally_optimal = 0
    for idx, (game, winning, mp) in enumerate(corpus):
        best, _ = sg.brute_force_min_density(game, mp)
        smart = sg.smart_random_extract(game, winning, idx)
        replp = sg.replp_extract(game, mp)
        assert sg.density(game, smart) >= best
        assert sg.density(game, replp) >= best
        assert sg.is_locally_optimal(game, smart)
        locally_optimal += 1
    assert locally_optimal == 500
    print(
        "\nPASS criterion 4: smart and replp densities >= exact minimum on "
        "500 games; 500/500 smart outputs locally optimal"
    )


def test_c05_lp_relaxation_bound_and_reference_simplex():
    linprog = pytest.importorskip("scipy.optimize").linprog
    corpus = solvable_random_games(150, 5, 5, 2, start_seed=0, max_bits=16)
    for game, winning, mp in corpus:
        pruned, mp2 = pruned_context(game, mp)
        prob = full_relaxation(pruned, mp2)
        sol = sg.lp_solve(prob)
        best, _ = sg.brute_force_min_density(game, mp)
        assert sol.objective_value <= best + 1e-6
    ref_checked = 0
    for game, winning, mp in solvable_random_games(100, 6, 6, 3, start_seed=500):
        pruned, mp2 = pruned_context(game, mp)
        prob = full_relaxation(pruned, mp2)
        mine = sg.lp_solve(prob)
        ref = linprog(
            prob.objective,
            A_ub=-prob.rows,
            b_ub=-prob.rhs,
            bounds=list(zip(prob.lo, prob.hi)),
            method="highs",
        )
        assert ref.status == 0
        assert abs(mine.objective_value - ref.fun) <= 1e-6
        ref_checked += 1
    print(
        f"\nPASS criterion 5: LP optimum <= exact density on 150 games "
        f"(1e-6 slack); objective matches reference simplex on {ref_checked} "
        f"instances within 1e-6"
    )


_COLUMNS: dict[tuple[int, int], int] = {}


def _var_column(v: int, nv: int) -> int:
    """Truth column of variable v over all 2^nv assignments, packed into
    one integer: bit i is (i >> (v-1)) & 1."""
    key = (v, nv)
    col = _COLUMNS.get(key)
    if col is None:
        n = 1 << nv
        half = 1 << (v - 1)
        period = half << 1
        comb = ((1 << n) - 1) // ((1 << period) - 1)  # bit at every period
        col = comb * (((1 << half) - 1) << half)
        _COLUMNS[key] = col
    return col


def _bitset_sat(nv: int, clauses) -> bool:
    full = (1 << (1 << nv)) - 1
    formula = full
    for clause in clauses:
        acc = 0
        for lit in clause:
            col = _var_column(abs(lit), nv)
            acc |= col if lit > 0 else (~col & full)
        formula &= acc
        if not formula:
            return False
    return formula != 0


def test_c06_sat_solver_and_cardinality_encoding():
    rng = sg.SplitMix64(777)
    agree = 0
    for _ in range(1000):
        nv = 1 + rng.below(20)
        nc = 1 + rng.below(5 * nv)
        clauses = []
        for _ in range(nc):
            clause = []
            for _ in range(3):
                v = 1 + rng.below(nv)
                clause.append(v if rng.below(2) else -v)
            clauses.append(clause)
        out = sg.sat_solve(sg.Cnf(nv, clauses))
        expected = _bitset_sat(nv, clauses)
        assert (out.status == "sat") == expected
        if out.status == "sat":
            model = out.model
            assert all(
                any((l > 0) == model[abs(l) - 1] for l in c) for c in clauses
            )
        agree += 1
    assert agree == 1000

    variables = list(range(1, 7))
    for k in range(0, 8):
        clauses, naux = sg.encode_at_most_k(variables, k, 7)
        for bits in itertools.product([False, True], repeat=6):
            units = [[v if b else -v] for v, b in zip(variables, bits)]
            cnf = sg.Cnf(6 + naux, [list(c) for c in clauses] + units)
            assert (sg.sat_solve(cnf).status == "sat") == (sum(bits) <= k)
    print(
        "\nPASS criterion 6: CDCL agrees with the truth-table oracle on "
        "1000 random 3-CNFs (<= 20 vars); at-most-k exhaustively verified "
        "for 6 vars, k = 0..7"
    )


def test_c07_mealy_size_bound_and_figure_translation():
    games = [sg.gen_chain(n) for n in range(1, 7)]
    games += [sg.gen_adversarial(i) for i in range(1, 4)]
    checked = 0
    for game in games:
        winning = sg.compute_winning_region(game)
        mp = sg.most_permissive(game, winning)
        for seed in (0, 1, 2):
            strat = sg.smart_random_extract(game, winning, seed)
            machine = sg.strategy_to_mealy(game, strat)
            assert len(machine.states) <= sg.density(game, strat) + 1
            checked += 1
        exact = sg.ilp_exact_extract(game, mp).strategy
        machine = sg.strategy_to_mealy(game, exact)
        assert len(machine.states) <= sg.density(game, exact) + 1
        checked += 1

    from conftest import FIG_GAME

    # Folding the strategy that picks the drawing's output letter z
    # reproduces the drawing's 2-state machine verbatim.
    z_machine = sg.strategy_to_mealy(
        FIG_GAME, sg.PositionalStrategy({"g1": "z", "g3": "x"})
    )
    assert z_machine.transitions == {
        ("g0", "u"): ("g2", "z"),
        ("g0", "v"): ("g2", "z"),
        ("g2", "u"): ("g0", "x"),
        ("g2", "v"): ("g2", "z"),
    }
    print(
        f"\nPASS criterion 7: machine size <= density+1 on {checked} "
        f"alternating extractions; the figure's strategy folds to its "
        f"2-state machine"
    )


def test_c08_adversarial_family_traps_local_search():
    start = time.perf_counter()
    game = sg.gen_adversarial(4)
    winning = sg.compute_winning_region(game)
    mp = sg.most_permissive(game, winning)
    best, _ = sg.brute_force_min_density(game, mp)
    n = 2000
    hits = sum(
        1
        for seed in range(n)
        if sg.density(game, sg.smart_random_extract(game, winning, seed)) == best
    )
    rate = hits / n
    # two-sided 99% normal CI must exclude 1/2
    half_width = 2.576 * math.sqrt(max(rate * (1 - rate), 1e-9) / n)
    elapsed = time.perf_counter() - start
    assert rate <= 0.20
    assert rate + half_width < 0.5
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 8: local search finds the optimum in "
        f"{rate:.2%} of {n} runs (<= 20%; design target 1/2^4 = 6.25%); "
        f"99% CI [{max(rate - half_width, 0):.3f}, {rate + half_width:.3f}] "
        f"excludes 50%; {elapsed:.1f}s"
    )


def test_c09_reproducibility(tmp_path):
    game = sg.gen_adversarial(3)
    winning = sg.compute_winning_region(game)
    mp = sg.most_permissive(game, winning)
    for method in METHOD_NAMES:
        first = sg.serialize_strategy(_extract(method, game, winning, mp, 11))
        second = sg.serialize_strategy(_extract(method, game, winning, mp, 11))
        assert first == second, method

    game_path = tmp_path / "g.txt"
    game_path.write_bytes(sg.serialize_game(game))
    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(
            ["extract", str(game_path), "--method", "smart", "--seed", "5",
             "--runs", "10", "--json", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        for trial in report["trials"]:
            del trial["time_secs"]
        del report["time_mean_secs"], report["time_stddev_secs"]
        reports.append(json.dumps(report, sort_keys=True).encode())
    assert reports[0] == reports[1]
    print(
        "\nPASS criterion 9: strategy files byte-identical across reruns for "
        "all 5 methods; CLI report values (timings aside) byte-identical"
    )


def test_c10_scale_smoke():
    start = time.perf_counter()
    game = sg.gen_adversarial(834)  # 5004 player-0 positions
    assert len(game.positions0) >= 5000
    winning = sg.compute_winning_region(game)
    assert game.init in winning
    strat = sg.smart_random_extract(game, winning, 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    dens = sg.density(game, strat)
    assert 2 * 834 <= dens <= 3 * 834
    mp = sg.most_permissive(game, winning)
    assert sg.validate_strategy(game, mp, strat).winning

    # a random game at the same scale
    start2 = time.perf_counter()
    game2 = sg.gen_random(7, 5000, 5000, 4)
    winning2 = sg.compute_winning_region(game2)
    assert game2.init in winning2
    sg.smart_random_extract(game2, winning2, 0)
    elapsed2 = time.perf_counter() - start2
    assert elapsed2 < 10.0
    print(
        f"\nPASS criterion 10: |V0|=5004 structured game solved + extracted "
        f"in {elapsed:.2f}s and |V0|=5000 random game in {elapsed2:.2f}s "
        f"(single-threaded, < 10s)"
    )
