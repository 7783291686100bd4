import hashlib
import math
import time
import types

import numpy as np
import pytest

import sparsegames as sg
import sparsegames.lp as lp_mod
from sparsegames.lp import (
    INTEGRALITY_EPS,
    build_relaxation,
    decode_support,
    pruned_context,
)

from conftest import full_relaxation, gap_game, solvable_random_games


def _bounded(names, objective, rows, rhs, lo=None, hi=None):
    n = len(names)
    return sg.LpProblem(
        tuple(names),
        np.array(objective, dtype=float),
        np.array(rows, dtype=float).reshape(-1, n),
        np.array(rhs, dtype=float),
        np.zeros(n) if lo is None else np.array(lo, dtype=float),
        np.ones(n) if hi is None else np.array(hi, dtype=float),
    )


def _random_lps(seed, count):
    """Small LPs with random dense rows and general bounds inside [0, 1]."""
    rng = sg.SplitMix64(seed)

    def rnd():
        return rng.next_u64() / 2**64

    out = []
    for _ in range(count):
        n = 1 + rng.below(8)
        m = rng.below(10)
        rows = np.array(
            [[(rnd() * 4 - 2) if rng.below(3) else 0.0 for _ in range(n)]
             for _ in range(m)]
        ).reshape(m, n)
        rhs = np.array([rnd() * 2 - 1 for _ in range(m)])
        c = np.array([rnd() * 4 - 2 for _ in range(n)])
        lo = np.array([rnd() * 0.5 for _ in range(n)])
        hi = np.array([l + rnd() * (1 - l) for l in lo])
        out.append(sg.LpProblem(tuple(f"x{i}" for i in range(n)), c, rows, rhs, lo, hi))
    return out


def test_minimize_single_variable():
    sol = sg.lp_solve(_bounded(["x"], [1.0], [[1.0]], [0.3]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.3, abs=1e-9)
    assert sol.values[0] == pytest.approx(0.3, abs=1e-9)


def test_infeasible_by_constraints():
    # x >= 1 and -x >= 0 cannot both hold
    sol = sg.lp_solve(_bounded(["x"], [1.0], [[1.0], [-1.0]], [1.0, 0.0]))
    assert sol.status == "infeasible"


def test_zero_variable_problems():
    # The frame's reduced problem has no variable when every position is
    # forced, as on gen_chain.
    empty = np.zeros(0)
    sol = sg.lp_solve(sg.LpProblem((), empty, np.zeros((0, 0)), empty, empty, empty))
    assert (sol.status, sol.objective_value, sol.pivots) == ("optimal", 0.0, 0)
    assert sol.values.shape == (0,)
    # The row 0 >= 1.
    sol = sg.lp_solve(sg.LpProblem((), empty, [], [1.0], empty, empty))
    assert sol.status == "infeasible"


def test_bad_bounds_rejected_at_build():
    # A NaN bound fails every comparison, so it must be rejected too.
    for lo, hi in (([1.0], [0.0]), ([np.nan], [1.0]), ([0.0], [np.nan])):
        with pytest.raises(ValueError):
            _bounded(["x"], [1.0], [[1.0]], [0.5], lo=lo, hi=hi)
    # min a + b s.t. a + b >= 1: a NaN row entry or rhs used to solve to
    # x = 0, and a NaN objective to raise IndexError.
    objective, rows, rhs = [1.0, 1.0], [[1.0, 1.0]], [1.0]
    for bad in (np.nan, np.inf, -np.inf):
        for data in (
            ([bad, 1.0], rows, rhs),
            (objective, [[1.0, bad]], rhs),
            (objective, rows, [bad]),
        ):
            with pytest.raises(ValueError, match="finite"):
                _bounded(["a", "b"], *data)


def test_problem_shapes_are_checked_at_build():
    with pytest.raises(ValueError, match="objective length"):
        _bounded(["x", "y"], [1.0], [[1.0, 1.0]], [0.5])
    for lo, hi in (([0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0])):
        with pytest.raises(ValueError, match="bound vectors"):
            sg.LpProblem(("x", "y"), [1.0, 1.0], [[1.0, 1.0]], [0.5], lo, hi)


def test_start_of_another_problem_is_rejected():
    prob = _bounded(["x", "y"], [1.0, 1.0], [[1.0, 1.0]], [0.5])
    other = _bounded(["x"], [1.0], [[1.0], [1.0]], [0.5, 0.2])
    with pytest.raises(ValueError, match="does not match"):
        sg.lp_solve(prob, lp_mod.Tableau.surplus(other))


def test_rebuilding_a_singular_basis_header_is_rejected():
    # The two rows are parallel, so x and y cannot both be basic.
    prob = _bounded(["x", "y"], [1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], [0.5, 1.0])
    tableau = lp_mod.Tableau.surplus(prob)
    with pytest.raises(ValueError, match="singular"):
        tableau.rebuilt(np.array([0, 1]), np.zeros(4, dtype=bool))


def test_lp_solve_deterministic():
    prob = _bounded(
        ["x", "y", "z"],
        [1.0, 2.0, 0.5],
        [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]],
        [0.7, 0.9, 0.4],
    )
    a = sg.lp_solve(prob)
    b = sg.lp_solve(prob)
    assert np.array_equal(a.values, b.values)
    assert a.objective_value == b.objective_value


def test_relaxation_of_player1_selfloop():
    game = sg.SafetyGame.build({"p": 1}, {("p", "z"): "p"}, "p")
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    prob = build_relaxation(game, mp)
    # init p is forced, and so is its only successor: the only pair,
    # (p, (p,)), has a forced target and goes, so the LP is empty.
    assert prob.var_names == ()
    assert prob.rows.shape == (0, 0)
    sol = sg.lp_solve(prob)
    assert sol.objective_value == pytest.approx(0.0, abs=1e-9)


def test_relaxation_flow_row_for_init():
    game = sg.SafetyGame.build(
        {"v": 0, "a": 1, "b": 1},
        {("v", "x"): "a", ("v", "y"): "b", ("a", "z"): "a", ("b", "z"): "b"},
        "v",
    )
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    prob = build_relaxation(game, mp)
    # init v is forced and no variable; its two targets stay free
    assert prob.var_names == ("a", "b")
    i_a = prob.var_names.index("a")
    i_b = prob.var_names.index("b")
    # v's flow row, with its forced source, is a + b >= 1
    flow = prob.rows[prob.rhs.tolist().index(1.0)]
    assert flow[i_a] == 1.0 and flow[i_b] == 1.0
    assert prob.rhs.tolist().count(1.0) == 1
    assert prob.lo.tolist() == [0.0, 0.0] and prob.hi.tolist() == [1.0, 1.0]


def test_relaxation_accumulates_duplicate_targets():
    game = sg.SafetyGame.build(
        {"v": 0, "a": 1},
        {("v", "x"): "a", ("v", "y"): "a", ("a", "z"): "a"},
        "v",
    )
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    prob = build_relaxation(game, mp)
    # v's one distinct target a is forced with it, so nothing is free.
    assert prob.rows.shape == (0, 0)
    # Behind a forced player-1 position, w has two actions to a and one
    # to b: its flow row is 2a + b >= 1.
    game = sg.SafetyGame.build(
        {"v": 1, "w": 0, "a": 1, "b": 1},
        {("v", "z"): "w", ("w", "x"): "a", ("w", "y"): "a", ("w", "u"): "b",
         ("a", "z"): "v", ("b", "z"): "b"},
        "v",
    )
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    prob = build_relaxation(game, mp)
    flow = prob.rows[prob.rhs.tolist().index(1.0)]
    assert flow[prob.var_names.index("a")] == 2.0
    assert flow[prob.var_names.index("b")] == 1.0


def test_relaxation_requires_pruned_game():
    game = sg.SafetyGame.build(
        {"v": 0, "a": 1, "dead": 0},
        {("v", "x"): "a", ("a", "z"): "a"},
        "v",
    )
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    with pytest.raises(ValueError):
        build_relaxation(game, mp)


def test_lp_bound_below_exact_density():
    checked = 0
    for game, winning, mp in solvable_random_games(200, 6, 6, 3):
        pruned, mp2 = pruned_context(game, mp)
        sol = sg.lp_solve(full_relaxation(pruned, mp2))
        exact = sg.ilp_exact_extract(game, mp).density
        assert sol.objective_value <= exact + 1e-6
        checked += 1
    assert checked == 200


def test_lp_matches_scipy_reference():
    linprog = pytest.importorskip("scipy.optimize").linprog
    for game, winning, mp in solvable_random_games(100, 6, 6, 3):
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
        assert mine.objective_value == pytest.approx(ref.fun, abs=1e-6)


def test_replp_integral_relaxation_single_round():
    game = sg.gen_chain(4)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    stats = {}
    strat = sg.replp_extract(game, mp, stats=stats)
    assert stats["rounds"] == 1
    assert sg.density(game, strat) == 4
    # A chain's whole support is forced, so its reduced LP is empty.
    assert stats["forced"] == 4
    assert stats["lp_shape"] == (0, 0)


#: gen_adversarial(8)'s reduced LP: 72 rows, 88 free positions, and the
#: bytes of its dense m x (n + m) tableau
_ADV8_TABLEAU = 72 * (88 + 72) * 8


@pytest.mark.parametrize(
    "engine", [sg.replp_extract, sg.ilp_exact_extract, sg.sat_exact_extract],
    ids=["replp", "ilp", "sat"],
)
def test_lp_engines_refuse_a_tableau_over_the_budget(monkeypatch, engine):
    # One byte under the tableau, each LP engine raises from
    # build_relaxation before the rows or the tableau are allocated; at
    # the tableau's size it solves.
    game = sg.gen_adversarial(8)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    allocated = []
    zeros = np.zeros
    monkeypatch.setattr(np, "zeros", lambda shape, **k: allocated.append(shape) or zeros(shape, **k))
    monkeypatch.setattr(lp_mod, "LP_TABLEAU_BYTES", _ADV8_TABLEAU - 1)
    with pytest.raises(sg.LpTooLargeError, match=f"{_ADV8_TABLEAU} bytes"):
        engine(game, mp)
    assert allocated == []
    monkeypatch.setattr(lp_mod, "LP_TABLEAU_BYTES", _ADV8_TABLEAU)
    result = engine(game, mp)
    strat = result if isinstance(result, sg.PositionalStrategy) else result.strategy
    assert sg.density(game, strat) == 16
    assert {(72, 88), (72, 160)} <= set(allocated)  # the rows, then the tableau


def test_replp_rounds_on_the_frame(monkeypatch):
    # replp prunes once, through its frame, builds the relaxation once,
    # there too, takes its first round from the frame's root, and decodes
    # only the support it returns: the frame's incumbent, which only the
    # exact engines read, is never decoded.
    calls = {"pruned_context": 0, "build_relaxation": 0, "decode_support": 0}
    for name in calls:
        real = getattr(lp_mod, name)

        def spy(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(lp_mod, name, spy)
    game, winning, mp = solvable_random_games(1, 6, 6, 3, start_seed=63)[0]
    stats = {}
    strat = lp_mod.replp_extract(game, mp, stats=stats)
    assert sg.validate_strategy(game, mp, strat).winning
    assert stats["rounds"] > 1
    assert calls == {"pruned_context": 1, "build_relaxation": 1, "decode_support": 1}

    game = sg.gen_adversarial(3)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    stats = {}
    lp_mod.replp_extract(game, mp, stats=stats)
    assert stats["rounds"] == 1
    assert calls == {"pruned_context": 2, "build_relaxation": 2, "decode_support": 2}
    assert stats["pivots"] == lp_mod._Frame(game, mp).root.pivots > 0


def test_replp_expired_deadline_raises_before_the_frame(monkeypatch):
    frames = []
    real = lp_mod._Frame
    monkeypatch.setattr(lp_mod, "_Frame", lambda *args: frames.append(1) or real(*args))
    game, _, mp = solvable_random_games(1, 6, 6, 3, start_seed=63)[0]
    with pytest.raises(sg.TimeoutExceededError):
        lp_mod.replp_extract(game, mp, deadline=time.monotonic() - 1.0)
    assert frames == []


def test_replp_deadline_after_the_root_raises_before_round_two(monkeypatch):
    # The clock passes the deadline once the frame has solved the root, so
    # the check before the second round's LP fires; the root is fractional
    # on this game, so that round would otherwise run.
    now = [0.0]
    solves = []
    real_frame, real_solve = lp_mod._Frame, lp_mod.lp_solve

    def frame(*args):
        built = real_frame(*args)
        now[0] = math.inf
        return built

    monkeypatch.setattr(lp_mod, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(lp_mod, "_Frame", frame)
    monkeypatch.setattr(lp_mod, "lp_solve", lambda *a: solves.append(1) or real_solve(*a))
    game = sg.gen_random(63, 6, 6, 3)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    assert lp_mod._fractional(real_frame(game, mp).root.values).any()
    solves.clear()
    with pytest.raises(sg.TimeoutExceededError):
        lp_mod.replp_extract(game, mp, deadline=1.0)
    assert solves == [1]  # the root only


def test_replp_chain_density_matches_oracle():
    game = sg.gen_chain(5)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    best, _ = sg.brute_force_min_density(game, mp)
    assert best == 5
    assert sg.density(game, sg.replp_extract(game, mp)) == 5


def test_replp_round_bound_and_monotone_fixing():
    for game, winning, mp in solvable_random_games(300, 6, 5, 3):
        stats = {}
        strat = sg.replp_extract(game, mp, stats=stats)
        assert sg.validate_strategy(game, mp, strat).winning
        assert stats["rounds"] <= len(game.pos_names)
        if stats["zero_fix_retries"] == 0:
            sizes = stats["fixed_sizes"]
            assert all(
                a1 <= a2 and b1 <= b2
                for (a1, b1), (a2, b2) in zip(sizes, sizes[1:])
            )


def test_replp_density_at_least_exact():
    for game, winning, mp in solvable_random_games(100, 5, 5, 2, max_bits=16):
        best, _ = sg.brute_force_min_density(game, mp)
        assert sg.density(game, sg.replp_extract(game, mp)) >= best


def test_replp_deterministic():
    game = sg.gen_adversarial(3)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    assert sg.replp_extract(game, mp) == sg.replp_extract(game, mp)


def test_decode_support_picks_smallest_action():
    game = sg.SafetyGame.build(
        {"v": 0, "a": 1, "b": 1},
        {("v", "x"): "b", ("v", "w"): "a", ("a", "z"): "a", ("b", "z"): "b"},
        "v",
    )
    flags = [p in ("v", "a", "b") for p in game.pos_names]
    strat = decode_support(game, flags)
    assert strat.choice == {"v": "w"}


def test_format_lp_dump():
    game = sg.SafetyGame.build({"p": 1}, {("p", "z"): "p"}, "p")
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    text = sg.format_lp(full_relaxation(game, mp))
    assert text.startswith("Minimize")
    assert "Subject To" in text and "Bounds" in text and text.endswith("End\n")
    assert " c0: p >= 1" in text


def test_simplex_matches_scipy_on_general_random_lps():
    linprog = pytest.importorskip("scipy.optimize").linprog
    for trial, prob in enumerate(_random_lps(4242, 150)):
        rows, rhs, lo, hi = prob.rows, prob.rhs, prob.lo, prob.hi
        m = rows.shape[0]
        mine = sg.lp_solve(prob)
        ref = linprog(
            prob.objective,
            A_ub=-rows if m else None,
            b_ub=-rhs if m else None,
            bounds=list(zip(lo, hi)),
            method="highs",
        )
        if mine.status == "infeasible":
            assert ref.status == 2, trial
        else:
            assert ref.status == 0, trial
            assert mine.objective_value == pytest.approx(
                ref.fun, abs=1e-6, rel=1e-6
            )
            x = mine.values
            if m:
                assert np.all(rows @ x >= rhs - 1e-7)
            assert np.all(x >= lo - 1e-9) and np.all(x <= hi + 1e-9)


def test_replp_retries_round_without_zero_fixings(monkeypatch):
    # Force one fixing round infeasible to exercise the documented retry:
    # the round is replayed without its zero-fixings and recorded.  Call 1
    # is the frame's root, call 2 the second round.
    game, winning, mp = solvable_random_games(1, 6, 6, 3, start_seed=63)[0]
    real_solve = lp_mod.lp_solve
    calls = {"n": 0}

    def flaky(problem, start=None):
        calls["n"] += 1
        if calls["n"] == 2:
            return lp_mod.LpSolution("infeasible")
        return real_solve(problem, start)

    monkeypatch.setattr(lp_mod, "lp_solve", flaky)
    stats = {}
    strat = lp_mod.replp_extract(game, mp, stats=stats)
    assert sg.validate_strategy(game, mp, strat).winning
    assert stats["zero_fix_retries"] == 1


def test_replp_raises_when_infeasible_without_zero_fixings(monkeypatch):
    game, winning, mp = solvable_random_games(1, 5, 5, 2)[0]
    monkeypatch.setattr(
        lp_mod, "lp_solve", lambda problem, start=None: lp_mod.LpSolution("infeasible")
    )
    with pytest.raises(AssertionError):
        lp_mod.replp_extract(game, mp)


def test_unbounded_reported_as_internal_error():
    # Not reachable through build_relaxation; exercise the guard directly.
    prob = _bounded(["x"], [-1.0], [[1.0]], [0.0])
    # hi = 1 keeps it bounded; loosen manually to fake an unbounded column
    prob.hi = np.array([np.inf])
    with pytest.raises((RuntimeError, ValueError)):
        sg.lp_solve(prob)


# SHA-256 prefix of ``values.tobytes()``, objective and pivots of the root
# LPs below.  They pin the dual simplex's pivot sequence: the same columns
# enter, the same rows leave, and the vertex is the same down to the last
# bit.
_PINNED_ROOTS = (
    ("chain16", "optimal", "acfc7c36fce590b1", 16.0, 31),
    ("adversarial1", "optimal", "8e9f1863b022561f", 2.0, 5),
    ("adversarial2", "optimal", "7034d44746f0fa41", 4.0, 10),
    ("adversarial3", "optimal", "27812b353c2188b7", 6.0, 15),
    ("adversarial4", "optimal", "61149171d781a0f8", 8.0, 20),
    ("adversarial5", "optimal", "047bb43fbb5866d7", 10.0, 25),
    ("adversarial6", "optimal", "03400ed158e09e8f", 12.0, 30),
    ("adversarial7", "optimal", "8630a39a6549d82f", 14.0, 35),
    ("adversarial8", "optimal", "9da7506cd1bff54a", 16.0, 40),
    ("random91", "optimal", "6c66c15ad58d8dbe", 2.0, 6),
    ("random183", "optimal", "7138d0b0c5c7467a", 2.5, 7),
    ("random218", "optimal", "e7bb3a289fe77ecf", 2.0, 3),
    ("random270", "optimal", "290c0cc6b2708cab", 2.2, 15),
)

# Every LP of ``ilp_exact_extract`` on ``gen_random(63, 6, 6, 3)``, the root
# first, in solve order.  An infeasible child counts the pivots up to the
# row that proves it infeasible; each child starts from its parent's
# optimal basis.  The LPs are the frame's reduced problem, so each
# objective leaves out the one forced player-0 position.
_PINNED_ILP_NODES = (
    ("optimal", "800bfac71512ec34", 1.1666666666666665, 10),
    ("optimal", "4811d55801c1fb50", 1.4999999999999996, 4),
    ("optimal", "d38107e7bd8b07b5", 2.0, 3),
    ("infeasible", None, 0.0, 0),
    ("optimal", "b84bcb54b80d2887", 2.0, 2),
    ("infeasible", None, 0.0, 1),
    ("optimal", "b11c934cd9a7326d", 3.0, 2),
    ("infeasible", None, 0.0, 3),
    ("optimal", "50ea5f190fa06b48", 2.5, 1),
)


def _pin(sol):
    digest = None
    if sol.values is not None:
        digest = hashlib.sha256(sol.values.tobytes()).hexdigest()[:16]
    return sol.status, digest, sol.objective_value, sol.pivots


def test_lp_solutions_are_pinned(monkeypatch):
    import sparsegames.ilp as ilp_mod

    games = {"chain16": sg.gen_chain(16)}
    games.update({f"adversarial{i}": sg.gen_adversarial(i) for i in range(1, 9)})
    games.update({f"random{s}": sg.gen_random(s, 12, 12, 3) for s in (91, 183, 218, 270)})
    for label, *pinned in _PINNED_ROOTS:
        game = games[label]
        mp = sg.most_permissive(game, sg.compute_winning_region(game))
        sol = sg.lp_solve(full_relaxation(*pruned_context(game, mp)))
        assert _pin(sol) == tuple(pinned), label

    solved = []

    def recording(problem, start=None):
        solved.append(sg.lp_solve(problem, start))
        return solved[-1]

    # The root is solved by the frame in ``lp``, the children in ``ilp``.
    monkeypatch.setattr(lp_mod, "lp_solve", recording)
    monkeypatch.setattr(ilp_mod, "lp_solve", recording)
    game = sg.gen_random(63, 6, 6, 3)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    stats = {}
    result = sg.ilp_exact_extract(game, mp, stats=stats)
    assert (result.density, result.work) == (4, len(_PINNED_ILP_NODES))
    assert [_pin(sol) for sol in solved] == list(_PINNED_ILP_NODES)
    assert stats["pivots"] == sum(p for *_, p in _PINNED_ILP_NODES)


def test_trap_roots_stay_integral():
    # ``ilp._Frame`` certifies a trap game at the root only while its root
    # LP lands on an integral vertex.  The objective alone does not show
    # this: with smallest-index ties in the dual ratio test, 8 of these 9
    # roots end on fractional optimal vertices of the same objective.
    games = [sg.gen_chain(64)]
    games += [sg.gen_adversarial(i) for i in (1, 2, 3, 4, 8, 12, 16, 24)]
    for game in games:
        mp = sg.most_permissive(game, sg.compute_winning_region(game))
        sol = sg.lp_solve(full_relaxation(*pruned_context(game, mp)))
        assert sol.status == "optimal"
        x = sol.values
        assert np.all(np.minimum(x, 1.0 - x) <= INTEGRALITY_EPS)


def test_root_lp_of_adversarial_32():
    # 417 rows over 385 pruned positions: the size where the dense solver
    # used to take about a second per root.
    game = sg.gen_adversarial(32)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    prob = full_relaxation(*pruned_context(game, mp))
    assert prob.rows.shape == (417, 385)
    sol = sg.lp_solve(prob)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(64.0, abs=1e-9)
    x = sol.values
    assert np.all(np.minimum(x, 1.0 - x) <= INTEGRALITY_EPS)
    assert np.all(prob.rows @ x >= prob.rhs - 1e-9)
    assert np.all(x >= prob.lo) and np.all(x <= prob.hi)
    try:
        from scipy.optimize import linprog
    except ImportError:
        return
    ref = linprog(
        prob.objective,
        A_ub=-prob.rows,
        b_ub=-prob.rhs,
        bounds=list(zip(prob.lo, prob.hi)),
        method="highs",
    )
    assert ref.status == 0
    assert sol.objective_value == pytest.approx(ref.fun, abs=1e-6)


def _full_height_dual_loop(T, beta, d, basis, upper, lo_ext, hi_ext, max_pivots):
    """Reference dual loop: scans every row for the leaving variable and
    every nonbasic column for the entering one, and subtracts the rank-1
    update from the whole tableau."""
    m, num_cols = T.shape
    feas = lp_mod._FEAS_TOL
    for pivots in range(max_pivots):
        r = -1
        for i in range(m):
            out = beta[i] < lo_ext[basis[i]] - feas or beta[i] > hi_ext[basis[i]] + feas
            if out and (r < 0 or basis[i] > basis[r]):
                r = i
        if r < 0:
            return pivots, True
        leaving = basis[r]
        low = beta[r] < lo_ext[leaving] - feas
        target = lo_ext[leaving] if low else hi_ext[leaving]
        basic = set(basis.tolist())
        ratios = {}
        for j in range(num_cols):
            if j in basic or hi_ext[j] <= lo_ext[j]:
                continue
            a = T[r, j]
            # the leaving variable moves by -a per unit that x_j rises
            toward = (a if upper[j] else -a) if low else (-a if upper[j] else a)
            if toward > lp_mod._PIVOT_TOL:
                ratios[j] = abs(d[j] / a)
        if not ratios:
            return pivots, False
        t = min(ratios.values())
        enter = max(j for j, q in ratios.items() if q <= t + 1e-12 * (1.0 + t))
        piv = T[r, enter]
        step = (beta[r] - target) / piv
        enter_val = (hi_ext[enter] if upper[enter] else lo_ext[enter]) + step
        beta -= T[:, enter] * step
        upper[leaving] = not low
        row = T[r] / piv
        T[r] = row
        colv = T[:, enter].copy()
        colv[r] = 0.0
        T -= np.outer(colv, row)
        d -= d[enter] * row
        basis[r] = enter
        beta[r] = enter_val
    raise RuntimeError("simplex pivot budget exhausted")


def test_pivot_loop_matches_full_height_reference(monkeypatch):
    problems = _random_lps(4242, 150)
    for game, winning, mp in solvable_random_games(60, 6, 6, 3):
        problems.append(full_relaxation(*pruned_context(game, mp)))
    for game in (sg.gen_chain(8), sg.gen_adversarial(4)):
        mp = sg.most_permissive(game, sg.compute_winning_region(game))
        problems.append(full_relaxation(*pruned_context(game, mp)))
    fast = [sg.lp_solve(prob) for prob in problems]
    monkeypatch.setattr(lp_mod, "_dual_loop", _full_height_dual_loop)
    for prob, mine in zip(problems, fast):
        ref = sg.lp_solve(prob)
        assert _pin(mine) == _pin(ref)


def _child_bounds(rng, sol, lo, hi):
    """Bounds of a branch-and-bound child of a node with optimum ``sol``:
    one to three variables fixed at a bound (a basic variable strictly
    inside its box or any nonbasic one), and sometimes one other bound
    relaxed to the edge of [0, 1]."""
    n = len(lo)
    lo, hi = lo.copy(), hi.copy()
    x = sol.values
    inside = [i for i in sol.basis if i < n and lo[i] < x[i] < hi[i]]
    nonbasic = sorted(set(range(n)) - set(sol.basis.tolist()))
    for _ in range(1 + rng.below(3)):
        pool = inside if inside and rng.below(2) else nonbasic or inside
        if not pool:
            break
        i = pool[rng.below(len(pool))]
        if rng.below(2):
            hi[i] = lo[i]
        else:
            lo[i] = hi[i]
    if rng.below(3) == 0:
        i = rng.below(n)
        if rng.below(2):
            lo[i] = 0.0
        else:
            hi[i] = 1.0
    return lo, hi


def test_pivot_loop_matches_full_height_reference_from_warm_starts(monkeypatch):
    # The loop builds its per-row bounds and per-column directions from
    # whatever basis it is handed, so children started, as in ilp, from
    # the root's optimal tableau rebuilt at their parent's basis header
    # must pivot exactly as the reference does too.
    problems = _random_lps(91, 60)
    for game, winning, mp in solvable_random_games(20, 6, 6, 3):
        problems.append(full_relaxation(*pruned_context(game, mp)))
    for n, k in ((20, 4), (40, 6)):
        game, _ = gap_game(n, k)
        mp = sg.most_permissive(game, sg.compute_winning_region(game))
        problems.append(full_relaxation(*pruned_context(game, mp)))
    rng = sg.SplitMix64(8)
    cases = []
    for prob in problems:
        root_tableau = lp_mod.Tableau.surplus(prob)
        parent = sg.lp_solve(prob, root_tableau)
        if parent.status == "infeasible":
            continue
        for _ in range(2):
            node, bounds = parent, (prob.lo, prob.hi)
            for _depth in range(2):
                bounds = _child_bounds(rng, node, *bounds)
                child = prob.with_bounds(*bounds)
                start = root_tableau.rebuilt(node.basis, node.upper)
                again = start.copy()
                node = sg.lp_solve(child, start)
                cases.append((child, again, node))
                if node.status == "infeasible":
                    break
    monkeypatch.setattr(lp_mod, "_dual_loop", _full_height_dual_loop)
    statuses = set()
    for child, start, mine in cases:
        ref = sg.lp_solve(child, start)
        assert _pin(mine) == _pin(ref)
        for name in ("basis", "upper"):
            a, b = getattr(mine, name), getattr(ref, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
        statuses.add(mine.status)
    assert statuses == {"optimal", "infeasible"} and len(cases) >= 100


def test_warm_start_matches_cold_solve():
    # Each child starts, as in ilp, from the root's optimal tableau rebuilt
    # at its parent's basis header: the root itself for a child, the
    # child's optimum for a grandchild, so the rebuild pivots in the
    # columns where the two bases differ.
    problems = _random_lps(77, 150)
    for game, winning, mp in solvable_random_games(40, 6, 6, 3):
        problems.append(full_relaxation(*pruned_context(game, mp)))
    for n, k in ((20, 4), (40, 6)):
        game, _ = gap_game(n, k)
        mp = sg.most_permissive(game, sg.compute_winning_region(game))
        problems.append(full_relaxation(*pruned_context(game, mp)))
    rng = sg.SplitMix64(5)
    outcomes = {"optimal": 0, "infeasible": 0}
    for trial, prob in enumerate(problems):
        root_tableau = lp_mod.Tableau.surplus(prob)
        parent = sg.lp_solve(prob, root_tableau)
        if parent.status == "infeasible":
            continue
        for _ in range(3):
            node, bounds = parent, (prob.lo, prob.hi)
            for _depth in range(2):
                bounds = _child_bounds(rng, node, *bounds)
                child = prob.with_bounds(*bounds)
                start = root_tableau.rebuilt(node.basis, node.upper)
                warm = sg.lp_solve(child, start)
                cold = sg.lp_solve(child)
                assert warm.status == cold.status, trial
                outcomes[warm.status] += 1
                if warm.status == "infeasible":
                    break
                assert warm.objective_value == pytest.approx(
                    cold.objective_value, abs=1e-9
                ), trial
                x = warm.values
                assert np.all(child.rows @ x >= child.rhs - 1e-7), trial
                assert np.all((x >= child.lo) & (x <= child.hi)), trial
                node = warm
    assert outcomes["optimal"] >= 300 and outcomes["infeasible"] >= 30, outcomes


def test_rebuild_leaves_its_tableau_unchanged():
    game, _ = gap_game(20, 4)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    prob = full_relaxation(*pruned_context(game, mp))
    tableau = lp_mod.Tableau.surplus(prob)
    before = tableau.copy()
    sol = sg.lp_solve(prob)
    rebuilt = tableau.rebuilt(sol.basis, sol.upper)
    for name in ("T", "d", "basis", "upper"):
        assert np.array_equal(getattr(tableau, name), getattr(before, name))
    assert sorted(rebuilt.basis) == sorted(sol.basis)
    # A start at the optimal basis is already primal feasible: no pivots.
    again = sg.lp_solve(prob, rebuilt)
    assert again.pivots == 0
    assert again.objective_value == pytest.approx(sol.objective_value, abs=1e-12)
