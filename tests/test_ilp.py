import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import sparsegames as sg
from sparsegames.game import reach, strategy_moves
from sparsegames.lp import _Frame
from sparsegames.lp import pruned_context

from conftest import full_relaxation, gap_game, solvable_random_games

# gen_random(63, 6, 6, 3) has a fractional root relaxation, so the
# branch-and-bound actually branches (9 LP solves).
BRANCHING_SEED = 63


def _branching_game():
    game = sg.gen_random(BRANCHING_SEED, 6, 6, 3)
    winning = sg.compute_winning_region(game)
    assert game.init in winning
    return game, sg.most_permissive(game, winning)


def test_integral_relaxation_means_no_branching():
    game = sg.gen_chain(4)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    res = sg.ilp_exact_extract(game, mp)
    assert res.density == 4 and res.certified
    assert res.work == 1  # root LP only


def test_branching_game_is_exact():
    game, mp = _branching_game()
    res = sg.ilp_exact_extract(game, mp)
    best, _ = sg.brute_force_min_density(game, mp)
    assert res.work > 1
    assert res.density == best and res.certified


def test_oracle_equality_on_small_games():
    for game, winning, mp in solvable_random_games(120, 5, 5, 2, max_bits=16):
        res = sg.ilp_exact_extract(game, mp)
        best, _ = sg.brute_force_min_density(game, mp)
        assert res.certified and res.density == best
        assert sg.validate_strategy(game, mp, res.strategy).winning


def test_budget_exhaustion_returns_uncertified_incumbent():
    game, mp = _branching_game()
    res = sg.ilp_exact_extract(game, mp, node_budget=1)
    assert not res.certified
    assert sg.validate_strategy(game, mp, res.strategy).winning
    full = sg.ilp_exact_extract(game, mp)
    assert res.density >= full.density


def test_deadline_raises():
    # Named for when an expired deadline raised TimeoutExceededError.  The
    # incumbent now starts as the all-ones support, so neither engine
    # raises: the fractional root of gen_random(63, 6, 6, 3) leaves the gap
    # open, and the all-ones support's density 4 comes back uncertified.
    game, mp = _branching_game()
    for engine in (sg.ilp_exact_extract, sg.sat_exact_extract):
        res = engine(game, mp, deadline=0.0)
        assert (res.density, res.certified) == (4, False), engine.__name__
        assert sg.validate_strategy(game, mp, res.strategy).winning
        assert sg.density(game, res.strategy) == 4


def test_expired_deadline_stops_both_engines_in_warm_start():
    # Named for the warm start that once ran first and raised on an expired
    # deadline.  No warm start runs now; gen_adversarial(3) has an integral
    # root, which the frame certifies before any deadline check.
    game = sg.gen_adversarial(3)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    for engine in (sg.ilp_exact_extract, sg.sat_exact_extract):
        res = engine(game, mp, deadline=0.0)
        assert (res.density, res.certified) == (6, True), engine.__name__
        assert sg.validate_strategy(game, mp, res.strategy).winning


def test_deadline_after_warm_start_returns_uncertified_incumbent(monkeypatch):
    # Each engine's clock reads past the deadline before the first child
    # LP or SAT probe, so the frame's all-ones incumbent comes back
    # uncertified.
    expired = types.SimpleNamespace(monotonic=lambda: math.inf)
    monkeypatch.setattr(sg.ilp, "time", expired)
    monkeypatch.setattr(sg.sat, "time", expired)
    game, mp = _branching_game()
    deadline = time.monotonic() + 3600.0
    for engine, work in ((sg.ilp_exact_extract, 1), (sg.sat_exact_extract, 0)):
        res = engine(game, mp, deadline=deadline)
        assert (res.density, res.certified, res.work) == (4, False, work)
        assert sg.validate_strategy(game, mp, res.strategy).winning
        assert sg.density(game, res.strategy) == 4


# (SHA-256 prefix of the serialized strategy, density, certified, work) of
# ilp_exact_extract with warm seeds 0 and 1, recorded before the shared
# frame offered an integral root itself.  random63's work went from 7 to 9
# LP solves, with the same strategies, when each child started from its
# parent's optimal basis instead of the surplus basis.  random264's went
# from 3 to 1, with the same strategy, when the frame left the forced
# positions out: its reduced root is integral.  When the incumbent started
# from the all-ones support instead of the seeded local search, the warm
# seed stopped mattering: random63's two strategies became one, with the
# same density and work, and random13 went from 5 to 7 LP solves.  When
# the search started plunging (depth-first within one rounded bound),
# random13 went back from 7 to 5, with the same strategy.
_ILP_PINS = {
    "chain8": [("dea93beba4e18286", 8, True, 1)] * 2,
    "adv1": [("eb3c679319f168fb", 2, True, 1)] * 2,
    "adv2": [("92b6c6544aa9abc4", 4, True, 1)] * 2,
    "adv3": [("7c584583487df259", 6, True, 1)] * 2,
    "adv4": [("a8529aafddc24875", 8, True, 1)] * 2,
    "adv5": [("6dcb9d29fe6a1134", 10, True, 1)] * 2,
    "adv6": [("80c0396c0d5d4d80", 12, True, 1)] * 2,
    "adv7": [("9e09b19c7103f194", 14, True, 1)] * 2,
    "adv8": [("7ffacef5ac1b7a3a", 16, True, 1)] * 2,
    "random63": [("f06b464c3b523d52", 4, True, 9)] * 2,
    "random264": [("f7f6be676b907b61", 3, True, 1)] * 2,
    "random348": [("ac974495176b1159", 3, True, 3)] * 2,
    "random13": [("0fb71683601b501d", 3, True, 5)] * 2,
}


def test_integrality_gap_solved_exactly():
    # 40 elements, 40 sets of 6: the optimum lies above the root rounded
    # up, so ilp must branch and sat must refute a bound.
    game, sets = gap_game(40, 6)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    root = sg.lp_solve(full_relaxation(*pruned_context(game, mp)))
    assert root.status == "optimal"
    assert np.ceil(root.objective_value - 1e-9) == 48
    for engine in (sg.ilp_exact_extract, sg.sat_exact_extract):
        res = engine(game, mp)
        assert (res.density, res.certified) == (49, True), engine.__name__
        assert sg.validate_strategy(game, mp, res.strategy).winning
    optimize = pytest.importorskip("scipy.optimize")
    cover = np.zeros((40, len(sets)))
    for s, members in enumerate(sets):
        cover[members, s] = 1.0
    ref = optimize.milp(
        np.ones(len(sets)),
        constraints=optimize.LinearConstraint(cover, lb=1.0),
        integrality=np.ones(len(sets)),
        bounds=optimize.Bounds(0.0, 1.0),
    )
    assert ref.status == 0
    assert 40 + round(ref.fun) == 49


def test_ilp_results_are_pinned():
    games = {"chain8": sg.gen_chain(8)}
    games.update((f"adv{i}", sg.gen_adversarial(i)) for i in range(1, 9))
    games.update((f"random{s}", sg.gen_random(s, 6, 6, 3)) for s in (63, 264, 348))
    games["random13"] = sg.gen_random(13, 8, 8, 3)
    for name, game in games.items():
        mp = sg.most_permissive(game, sg.compute_winning_region(game))
        got = []
        for warm in (0, 1):
            res = sg.ilp_exact_extract(game, mp, warm_seed=warm)
            text = sg.serialize_strategy(res.strategy)
            digest = hashlib.sha256(text).hexdigest()[:16]
            got.append((digest, res.density, res.certified, res.work))
        assert got == _ILP_PINS[name], name


def test_deterministic_result():
    game, mp = _branching_game()
    a = sg.ilp_exact_extract(game, mp)
    b = sg.ilp_exact_extract(game, mp)
    assert a.strategy == b.strategy and a.density == b.density and a.work == b.work


def _enumerate_feasible_min(problem, fixed0, fixed1):
    """Exhaustively minimize the objective over feasible 0/1 vectors that
    respect the node's fixings (test-side completion oracle)."""
    n = len(problem.var_names)
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=n):
        x = np.array(bits)
        if any(x[i] != 0.0 for i in fixed0):
            continue
        if any(x[i] != 1.0 for i in fixed1):
            continue
        if np.any(x < problem.lo - 1e-9) or np.any(x > problem.hi + 1e-9):
            continue
        if np.any(problem.rows @ x < problem.rhs - 1e-9):
            continue
        val = float(problem.objective @ x)
        best = val if best is None else min(best, val)
    return best


def test_node_bounds_are_valid_lower_bounds():
    game, mp = _branching_game()
    pruned, mp2 = pruned_context(game, mp)
    problem = full_relaxation(pruned, mp2)
    if len(problem.var_names) > 14:
        pytest.skip("completion enumeration too large")
    stats = {}
    sg.ilp_exact_extract(game, mp, stats=stats)
    assert stats["nodes"], "expected at least the root node"
    for bound, fixed0, fixed1 in stats["nodes"]:
        best = _enumerate_feasible_min(problem, fixed0, fixed1)
        if best is not None:
            assert bound <= best + 1e-6


def test_incumbent_always_valid_anytime():
    for budget in (1, 2, 3, 5, 8):
        game, mp = _branching_game()
        res = sg.ilp_exact_extract(game, mp, node_budget=budget)
        assert sg.validate_strategy(game, mp, res.strategy).winning


def test_children_start_from_their_parents_basis():
    # Solving every child LP from the surplus basis took 8,667 pivots on
    # this game; from each parent's optimal basis it takes about 1,000.
    game, _ = gap_game(40, 6)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    stats = {}
    res = sg.ilp_exact_extract(game, mp, stats=stats)
    assert (res.density, res.certified) == (49, True)
    assert stats["pivots"] < 3000


def _search_fingerprints():
    """(strategy digest, density, work, pivots) of ilp on two branching
    games."""
    out = []
    for game in (gap_game(20, 4)[0], sg.gen_random(63, 6, 6, 3)):
        mp = sg.most_permissive(game, sg.compute_winning_region(game))
        stats = {}
        res = sg.ilp_exact_extract(game, mp, stats=stats)
        digest = hashlib.sha256(sg.serialize_strategy(res.strategy)).hexdigest()
        out.append([digest, res.density, res.work, stats["pivots"]])
    return out


def test_results_do_not_depend_on_blas_threads():
    # Every pivot is elementwise, so one BLAS thread must give the same
    # search as the default thread count.
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(Path(sg.__file__).parents[1]), str(here)])
    script = "import json, test_ilp; print(json.dumps(test_ilp._search_fingerprints()))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == _search_fingerprints()


def _highs_density(n, sets):
    """n plus the minimum cover of ``sets``, by HiGHS."""
    optimize = pytest.importorskip("scipy.optimize")
    cover = np.zeros((n, len(sets)))
    for s, members in enumerate(sets):
        cover[members, s] = 1.0
    ref = optimize.milp(
        np.ones(len(sets)),
        constraints=optimize.LinearConstraint(cover, lb=1.0),
        integrality=np.ones(len(sets)),
        bounds=optimize.Bounds(0.0, 1.0),
    )
    assert ref.status == 0
    return n + round(ref.fun)


def test_forced_closure_presolve_is_exact():
    # Both engines solve the frame's reduced problem; every forced
    # position must lie in the returned support, and the reduced root
    # plus the forced player-0 count must still bound the optimum.
    cases = []
    for seed in range(200):
        game = sg.gen_random(seed, 6, 6, 3)
        winning = sg.compute_winning_region(game)
        if game.init in winning:
            mp = sg.most_permissive(game, winning)
            cases.append((game, mp, sg.brute_force_min_density(game, mp)[0]))
    game, sets = gap_game(40, 6)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    cases.append((game, mp, _highs_density(40, sets)))
    assert len(cases) == 144
    for game, mp, best in cases:
        frame = _Frame(game, mp)
        full_root = sg.lp_solve(full_relaxation(*pruned_context(game, mp)))
        reduced = frame.reduced.offset + frame.root.objective_value
        assert full_root.objective_value - 1e-9 <= reduced <= best + 1e-9
        forced = {game.pos_names[v] for v in np.flatnonzero(frame.reduced.forced)}
        for engine in (sg.ilp_exact_extract, sg.sat_exact_extract):
            stats = {}
            res = engine(game, mp, stats=stats)
            assert (res.density, res.certified) == (best, True)
            assert sg.validate_strategy(game, mp, res.strategy).winning
            assert stats["forced"] == frame.reduced.offset
            assert stats["lp_shape"] == frame.problem.rows.shape
            order, _ = reach(game, strategy_moves(game, res.strategy).get)
            assert forced <= {game.pos_names[v] for v in order}


def test_plunging_certifies_gap_60_in_few_lp_solves():
    # Best-first search alone took 2,803 LP solves on this game: it
    # expanded nodes breadth-wise within each rounded bound.  Plunging
    # finds the optimal cover deep in the tree and certifies it soon after.
    game, sets = gap_game(60, 8)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    res = sg.ilp_exact_extract(game, mp)
    assert (res.density, res.certified) == (_highs_density(60, sets), True)
    assert res.work <= 400
    assert sg.validate_strategy(game, mp, res.strategy).winning


def test_reduced_lp_shapes_are_pinned():
    # Rows x variables of the reduced LP of gap games, whose unreduced
    # relaxations are 121 x 81 and 181 x 121.
    for n, k, shape in ((40, 6, (34, 39)), (60, 8, (60, 60))):
        game, _ = gap_game(n, k)
        mp = sg.most_permissive(game, sg.compute_winning_region(game))
        assert _Frame(game, mp).problem.rows.shape == shape
