import hashlib
import itertools

import pytest

import sparsegames as sg
from sparsegames.lp import _Frame
from sparsegames.lp import INTEGRALITY_EPS, pruned_context
from sparsegames.sat import _Solver, _luby

from conftest import full_cnf, gap_game, solvable_random_games, unchecked_most_permissive


def _truth_table_sat(num_vars: int, clauses) -> bool:
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any((l > 0) == bits[abs(l) - 1] for l in c) for c in clauses):
            return True
    return not clauses


def _model_satisfies(clauses, model) -> bool:
    return all(any((l > 0) == model[abs(l) - 1] for l in c) for c in clauses)


def _random_cnf(rng, max_vars=12, max_clauses=40):
    nv = 1 + rng.below(max_vars)
    nc = 1 + rng.below(max_clauses)
    clauses = []
    for _ in range(nc):
        width = 1 + rng.below(3)
        clause = []
        for _ in range(width):
            v = 1 + rng.below(nv)
            clause.append(v if rng.below(2) else -v)
        clauses.append(clause)
    return sg.Cnf(nv, clauses)


def test_empty_cnf_is_sat_with_empty_model():
    out = sg.sat_solve(sg.Cnf(0, []))
    assert out.status == "sat" and out.model == ()


def test_unit_contradiction_is_unsat():
    assert sg.sat_solve(sg.Cnf(1, [[1], [-1]])).status == "unsat"


def test_empty_clause_is_unsat():
    assert sg.sat_solve(sg.Cnf(0, [[]])).status == "unsat"


@pytest.mark.parametrize(
    "clauses", [[[0]], [[0, 1], [-1]], [[3]], [[1, -2]]], ids=["zero", "zero-taut", "over", "neg-over"]
)
def test_out_of_range_literal_is_rejected(clauses):
    # Literal 0 used to read as its own negation, a tautology, and a
    # literal past num_vars to raise IndexError.
    with pytest.raises(ValueError, match="outside"):
        sg.sat_solve(sg.Cnf(1, clauses))


def test_random_cnfs_match_truth_tables():
    rng = sg.SplitMix64(2024)
    for _ in range(300):
        cnf = _random_cnf(rng)
        out = sg.sat_solve(cnf)
        expected = _truth_table_sat(cnf.num_vars, cnf.clauses)
        assert (out.status == "sat") == expected
        if out.status == "sat":
            assert _model_satisfies(cnf.clauses, out.model)


def _random_3cnf(rng, min_vars=20, max_vars=50):
    """A random 3-CNF at 4.2 clauses per variable, near the satisfiability
    threshold, so both verdicts occur and most take conflicts."""
    nv = min_vars + rng.below(max_vars - min_vars + 1)
    clauses = []
    for _ in range(42 * nv // 10):
        chosen = set()
        while len(chosen) < 3:
            chosen.add(1 + rng.below(nv))
        clauses.append([v if rng.below(2) else -v for v in sorted(chosen)])
    return sg.Cnf(nv, clauses)


def test_activity_rescale_keeps_verdicts(monkeypatch):
    # With a low limit the activities overflow it within a few conflicts;
    # the rescale and the rebuilt decision heap must leave every verdict
    # as the truth table gives it.
    rescales = []
    real_bump = _Solver._bump

    def bump(self, v):
        inc = self.var_inc
        real_bump(self, v)
        if self.var_inc < inc:
            rescales.append(v)

    monkeypatch.setattr(_Solver, "_ACT_LIMIT", 1.5)
    monkeypatch.setattr(_Solver, "_bump", bump)
    rng = sg.SplitMix64(2024)
    for _ in range(40):
        cnf = _random_3cnf(rng, 10, 13)
        out = sg.sat_solve(cnf)
        assert (out.status == "sat") == _truth_table_sat(cnf.num_vars, cnf.clauses)
        if out.status == "sat":
            assert _model_satisfies(cnf.clauses, out.model)
    assert len(rescales) > 10


def test_cdcl_search_is_pinned():
    # SHA-256 prefixes of the solver's (status, conflicts, model) on seeded
    # random 3-CNFs and of sat_exact_extract's probes on seeded games.  They
    # pin the search itself: watch order, decisions, learned clauses and
    # restarts all show in the conflict counts and the models.
    rng = sg.SplitMix64(29)
    digest = hashlib.sha256()
    verdicts = {"sat": 0, "unsat": 0}
    for _ in range(120):
        out = sg.sat_solve(_random_3cnf(rng))
        verdicts[out.status] += 1
        digest.update(repr((out.status, out.conflicts, out.model)).encode())
    assert verdicts == {"sat": 75, "unsat": 45}
    assert digest.hexdigest()[:16] == "17a040017ea8d9bf"

    digest = hashlib.sha256()
    games = [game for game, _, _ in solvable_random_games(60, 20, 10, 3)] + [gap_game(40, 6)[0]]
    probes = 0
    for game in games:
        mp = sg.most_permissive(game, sg.compute_winning_region(game))
        stats = {}
        sg.sat_exact_extract(game, mp, stats=stats)
        probes += len(stats["probes"])
        digest.update(repr(stats["probes"]).encode())
    assert stats["probes"] == [(48, "unsat", 1064), (49, "sat", 2)]
    assert probes == 12
    assert digest.hexdigest()[:16] == "cd5033cd86c78e84"


def test_sat_solve_deterministic():
    rng = sg.SplitMix64(55)
    cnf = _random_cnf(rng, max_vars=15, max_clauses=60)
    a = sg.sat_solve(cnf)
    b = sg.sat_solve(cnf)
    assert a.status == b.status and a.model == b.model


def test_conflict_budget_returns_unknown():
    # A pigeonhole-flavored unsat core that needs more than one conflict.
    clauses = [[1, 2], [1, -2], [-1, 2], [-1, -2]]
    out = sg.sat_solve(sg.Cnf(2, clauses), max_conflicts=1)
    assert (out.status, out.model, out.conflicts) == ("unknown", None, 2)
    assert sg.sat_solve(sg.Cnf(2, clauses)).status == "unsat"


def _pigeonhole(holes: int) -> sg.Cnf:
    # holes + 1 pigeons, each in some hole, no two in the same hole.
    var = lambda i, j: i * holes + j + 1
    pigeons = range(holes + 1)
    clauses = [[var(i, j) for j in range(holes)] for i in pigeons]
    for j in range(holes):
        clauses += [[-var(a, j), -var(b, j)] for a in pigeons for b in pigeons if a < b]
    return sg.Cnf((holes + 1) * holes, clauses)


def test_expired_deadline_returns_unknown():
    # The clock is read every 512 conflicts; this refutation needs more.
    cnf = _pigeonhole(6)
    assert sg.sat_solve(cnf).conflicts > 512
    out = sg.sat_solve(cnf, deadline=0.0)
    assert (out.status, out.model, out.conflicts) == ("unknown", None, 512)
    # A refutation that ends before the first reading is not cut short.
    small = _pigeonhole(4)
    assert sg.sat_solve(small, deadline=0.0).status == "unsat"


def test_conflicts_count_is_the_budget_boundary():
    rng = sg.SplitMix64(77)
    counted = 0
    for _ in range(200):
        cnf = _random_cnf(rng, max_vars=15, max_clauses=60)
        out = sg.sat_solve(cnf)
        again = sg.sat_solve(cnf, max_conflicts=out.conflicts)
        assert (again.status, again.model, again.conflicts) == (
            out.status, out.model, out.conflicts,
        )
        if out.conflicts:
            counted += 1
            cut = sg.sat_solve(cnf, max_conflicts=out.conflicts - 1)
            assert (cut.status, cut.conflicts) == ("unknown", out.conflicts)
    assert counted > 0


def test_luby_sequence():
    assert [_luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
    ]


def test_at_most_zero_is_unit_negations():
    clauses, naux = sg.encode_at_most_k([3, 5, 9], 0, 10)
    assert clauses == [[-3], [-5], [-9]] and naux == 0


def test_at_most_vacuous_when_k_covers_all():
    clauses, naux = sg.encode_at_most_k([1, 2, 3], 3, 4)
    assert clauses == [] and naux == 0
    clauses, naux = sg.encode_at_most_k([1, 2], 7, 3)
    assert clauses == []


def test_at_most_k_exhaustive_six_vars():
    variables = list(range(1, 7))
    for k in range(0, 8):
        clauses, naux = sg.encode_at_most_k(variables, k, 7)
        for bits in itertools.product([False, True], repeat=6):
            units = [[v if b else -v] for v, b in zip(variables, bits)]
            cnf = sg.Cnf(6 + naux, [list(c) for c in clauses] + units)
            got = sg.sat_solve(cnf).status == "sat"
            assert got == (sum(bits) <= k), (k, bits)


def test_at_most_negative_k_is_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        sg.encode_at_most_k([1, 2], -1, 3)


def test_at_most_k_size_linear():
    clauses, naux = sg.encode_at_most_k(list(range(1, 51)), 5, 51)
    assert naux == 49 * 5
    assert len(clauses) <= 50 * 5 * 2 + 50


def test_build_cnf_player1_selfloop():
    game = sg.SafetyGame.build({"p": 1}, {("p", "z"): "p"}, "p")
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    cnf, var_map = sg.build_cnf(game, mp)
    # init p and its only successor are forced: no variable, no clause
    assert var_map == {}
    assert (cnf.num_vars, cnf.clauses) == (0, [])
    assert sg.sat_solve(cnf).status == "sat"


def test_build_cnf_flow_clause():
    game = sg.SafetyGame.build(
        {"v": 0, "a": 1, "b": 1},
        {("v", "x"): "a", ("v", "y"): "b", ("a", "z"): "a", ("b", "z"): "b"},
        "v",
    )
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    cnf, var_map = sg.build_cnf(game, mp)
    # init v is forced, so its flow clause loses its source literal
    assert var_map == {"a": 1, "b": 2}
    assert cnf.clauses == [[-1, 1], [-2, 2], [1, 2]]


def test_build_cnf_rejects_losing_target():
    game = sg.SafetyGame.build(
        {"v": 0, "p": 1, "q": 0},
        {("v", "x"): "p", ("v", "y"): "q", ("p", "u"): "q"},
        "v",
    )
    v, p, q = (game.pos_index[n] for n in ("v", "p", "q"))
    x, y = game.act_index["x"], game.act_index["y"]
    inconsistent = [
        # p is player 1 and winning, but its successor q is not.
        sg.MostPermissiveStrategy(frozenset({"v", "p"}), {v: ((x, p),)}),
        # v is player 0 and allows actions to the losing p and q.
        sg.MostPermissiveStrategy(frozenset({"v"}), {v: ((x, p), (y, q))}),
    ]
    # Neither covers every position of the game, so neither is the
    # most-permissive strategy of a pruned game.
    for mp in inconsistent:
        with pytest.raises(ValueError):
            sg.build_cnf(game, mp)


def test_lp_rows_and_cnf_clauses_encode_the_same_pairs():
    # Row i of the relaxation and clause i of the CNF come from the same
    # support pair: -1 at column j is the literal -(j + 1), a positive
    # coefficient at column t is the literal t + 1, and a row with rhs 1
    # is a clause with no negative literal.  A source that is its own
    # target leaves -1 plus its multiplicity at its column and both of
    # its literals in the clause.
    games = [game for game, _, _ in solvable_random_games(40, 6, 6, 3)]
    games += [sg.gen_adversarial(i) for i in range(1, 6)]
    for game in games:
        mp = sg.most_permissive(game, sg.compute_winning_region(game))
        pruned, mp2 = pruned_context(game, mp)
        problem = sg.build_relaxation(pruned, mp2)
        cnf, var_map = sg.build_cnf(pruned, mp2)
        n = len(problem.var_names)
        assert list(var_map) == list(problem.var_names)
        assert list(var_map.values()) == list(range(1, n + 1))
        assert (cnf.num_vars, len(cnf.clauses)) == (n, problem.rows.shape[0])
        for row, rhs, clause in zip(problem.rows, problem.rhs, cnf.clauses):
            negative = {-lit - 1 for lit in clause if lit < 0}
            positive = {lit - 1 for lit in clause if lit > 0}
            assert len(negative) <= 1 and len(clause) == len(negative) + len(positive)
            assert rhs == (0.0 if negative else 1.0)
            for j, coef in enumerate(row):
                if j in negative and j in positive:
                    assert coef >= 0.0
                elif j in negative:
                    assert coef == -1.0
                elif j in positive:
                    assert coef >= 1.0 and coef == int(coef)
                else:
                    assert coef == 0.0


def test_encodings_of_adversarial_1_are_pinned():
    # The CDCL's choices depend on clause order, so the exact text is pinned.
    # M (init) and e1, its only successor, are forced; the rest are free.
    game = sg.gen_adversarial(1)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    pruned, mp2 = pruned_context(game, mp)
    cnf, var_map = sg.build_cnf(pruned, mp2)
    assert var_map == {p: i for i, p in enumerate(pruned.pos_names[2:], 1)}
    assert sg.to_dimacs(cnf) == (
        "p cnf 11 9\n1 2 3 0\n-1 9 0\n-2 7 0\n-3 8 0\n-4 9 0\n-5 10 0\n"
        "-6 11 0\n-7 4 5 0\n-8 5 6 0\n"
    )
    bounds = "".join(f" 0 <= {p} <= 1\n" for p in pruned.pos_names[2:])
    assert sg.format_lp(sg.build_relaxation(pruned, mp2)) == (
        "Minimize\n"
        " obj: wm1_1 + wm2_1 + wt1_1 + wt2_1 + wt3_1\n"
        "Subject To\n"
        " c0: ra_1 + rb1_1 + rb2_1 >= 1\n"
        " c1: - ra_1 + wt1_1 >= 0\n"
        " c2: - rb1_1 + wm1_1 >= 0\n"
        " c3: - rb2_1 + wm2_1 >= 0\n"
        " c4: - rt1_1 + wt1_1 >= 0\n"
        " c5: - rt2_1 + wt2_1 >= 0\n"
        " c6: - rt3_1 + wt3_1 >= 0\n"
        " c7: rt1_1 + rt2_1 - wm1_1 >= 0\n"
        " c8: rt2_1 + rt3_1 - wm2_1 >= 0\n"
        "Bounds\n" + bounds + "End\n"
    )


def test_cnf_satisfiable_iff_init_winning():
    solvable = 0
    losing = 0
    seed = 0
    while solvable < 100 or losing < 100:
        game = sg.gen_random(seed, 5, 5, 2)
        seed += 1
        winning = sg.compute_winning_region(game)
        mp = unchecked_most_permissive(game, winning)
        cnf, _ = full_cnf(game, mp)
        out = sg.sat_solve(cnf)
        if game.init in winning:
            if solvable >= 100:
                continue
            solvable += 1
            assert out.status == "sat"
        else:
            if losing >= 100:
                continue
            losing += 1
            assert out.status == "unsat"


def test_cardinality_monotone_in_k():
    for game, winning, mp in solvable_random_games(20, 5, 5, 2):
        pruned, mp2 = pruned_context(game, mp)
        base, var_map = full_cnf(pruned, mp2)
        p0_vars = sorted(var_map[p] for p in pruned.positions0)
        if not p0_vars:
            continue
        for k in range(len(p0_vars)):
            low, n_low = sg.encode_at_most_k(p0_vars, k, base.num_vars + 1)
            hi, n_hi = sg.encode_at_most_k(p0_vars, k + 1, base.num_vars + 1)
            sat_low = sg.sat_solve(
                sg.Cnf(base.num_vars + n_low, [list(c) for c in base.clauses] + low)
            ).status == "sat"
            sat_hi = sg.sat_solve(
                sg.Cnf(base.num_vars + n_hi, [list(c) for c in base.clauses] + hi)
            ).status == "sat"
            if sat_low:
                assert sat_hi


def test_model_decodes_to_winning_strategy():
    from sparsegames.lp import decode_support

    for game, winning, mp in solvable_random_games(60, 6, 6, 3):
        pruned, mp2 = pruned_context(game, mp)
        cnf, var_map = full_cnf(pruned, mp2)
        out = sg.sat_solve(cnf)
        assert out.status == "sat"
        flags = [False] * len(pruned.pos_names)
        for p, var in var_map.items():
            flags[pruned.pos_index[p]] = out.model[var - 1]
        strat = decode_support(pruned, flags)
        assert sg.validate_strategy(game, mp, strat).winning


def test_engines_build_each_encoding_at_most_once(monkeypatch):
    # Every LP engine solves build_relaxation's problem, built once by its
    # frame; sat builds its clauses with build_cnf only when the root
    # leaves a gap to probe.
    import sparsegames.lp as lp_mod
    import sparsegames.sat as sat_mod

    calls = {"build_relaxation": 0, "build_cnf": 0}
    for mod, name in ((lp_mod, "build_relaxation"), (sat_mod, "build_cnf")):
        real = getattr(mod, name)

        def spy(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(mod, name, spy)
    engines = (sg.replp_extract, sg.ilp_exact_extract, sg.sat_exact_extract)
    for game, probes in ((sg.gen_random(63, 6, 6, 3), 1), (sg.gen_adversarial(3), 0)):
        mp = sg.most_permissive(game, sg.compute_winning_region(game))
        for engine in engines:
            calls.update(build_relaxation=0, build_cnf=0)
            engine(game, mp)
            expected = probes if engine is sg.sat_exact_extract else 0
            assert calls == {"build_relaxation": 1, "build_cnf": expected}, engine


def test_sat_exact_matches_ilp_on_random_games():
    for game, winning, mp in solvable_random_games(200, 5, 5, 2):
        a = sg.sat_exact_extract(game, mp)
        b = sg.ilp_exact_extract(game, mp)
        assert a.certified and b.certified
        assert a.density == b.density
        assert sg.validate_strategy(game, mp, a.strategy).winning


def _solved(game):
    return game, sg.most_permissive(game, sg.compute_winning_region(game))


def test_sat_exact_budget_exhaustion_returns_uncertified():
    # The root LP of this game is fractional, so a probe runs and one
    # conflict exhausts its budget.
    game, mp = _solved(sg.gen_random(13, 8, 8, 3))
    stats = {}
    res = sg.sat_exact_extract(game, mp, max_conflicts=1, stats=stats)
    assert stats["probes"] == [(2, "unknown", 2)] and res.work == 1
    assert not res.certified
    assert sg.validate_strategy(game, mp, res.strategy).winning
    full = sg.sat_exact_extract(game, mp)
    assert full.certified
    assert res.density >= full.density
    # An integral root certifies before any probe, whatever the budget.
    game, mp = _solved(sg.gen_adversarial(3))
    res = sg.sat_exact_extract(game, mp, max_conflicts=1)
    assert res.certified and res.work == 0 and res.density == 6


def test_sat_exact_certifies_integral_root_without_probes(monkeypatch):
    calls = []
    real = sg.sat.sat_solve
    monkeypatch.setattr(
        sg.sat, "sat_solve", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    cases = [(sg.gen_chain(8), 8)]
    cases += [(sg.gen_adversarial(i), 2 * i) for i in range(1, 9)]
    for game, density in cases:
        game, mp = _solved(game)
        for warm in (0, 1):
            res = sg.sat_exact_extract(game, mp, warm_seed=warm)
            assert (res.density, res.certified, res.work) == (density, True, 0)
            assert sg.validate_strategy(game, mp, res.strategy).winning
    assert calls == []


def test_fractional_root_with_integral_objective_is_searched():
    # Both roots have objective 2 (up to rounding) with the forced
    # positions, but fractional values, so the frame must not take them as
    # certificates: the optimum is 3.
    for seed in (348, 412):
        game, mp = _solved(sg.gen_random(seed, 6, 6, 3))
        frame = _Frame(game, mp)
        v = frame.root.values
        assert frame.lb == 2
        assert ((v > INTEGRALITY_EPS) & (v < 1.0 - INTEGRALITY_EPS)).any()
        best, _ = sg.brute_force_min_density(game, mp)
        assert best == 3
        for engine in (sg.sat_exact_extract, sg.ilp_exact_extract):
            res = engine(game, mp)
            assert res.certified and res.density == best
            assert sg.validate_strategy(game, mp, res.strategy).winning


def test_sat_exact_probes_the_lp_bound_first():
    # Root 2.17 rounds up to 3; the optimum is 4, so the one probe at
    # k = 3 is refuted and the incumbent's density 4 is certified.
    game, mp = _solved(sg.gen_random(63, 6, 6, 3))
    runs = []
    for _ in range(2):
        stats = {}
        res = sg.sat_exact_extract(game, mp, stats=stats)
        assert res.certified and res.density == 4 and res.work == 1
        runs.append(stats["probes"])
    [(k, status, conflicts)] = runs[0]
    assert (k, status) == (3, "unsat") and conflicts >= 0
    assert runs[0] == runs[1]
    # Root objective 2 with fractional values and optimum 2: the all-ones
    # incumbent already has density 2 = lb, so no probe runs.
    game, mp = _solved(sg.gen_random(1666, 6, 6, 3))
    stats = {}
    res = sg.sat_exact_extract(game, mp, stats=stats)
    assert res.certified and res.density == 2 and res.work == 0
    assert stats["probes"] == []


def test_density_zero_game_across_engines():
    game = sg.SafetyGame.build(
        {"p": 1, "q": 1}, {("p", "z"): "q", ("q", "z"): "p"}, "p"
    )
    winning = sg.compute_winning_region(game)
    mp = sg.most_permissive(game, winning)
    assert sg.smart_random_extract(game, winning, 0).choice == {}
    assert sg.replp_extract(game, mp).choice == {}
    ilp = sg.ilp_exact_extract(game, mp)
    sat = sg.sat_exact_extract(game, mp)
    assert ilp.density == sat.density == 0
    assert ilp.certified and sat.certified


def test_sat_exact_unique_strategy_collapses_search():
    game = sg.gen_chain(4)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    for warm in (0, 7, 99):
        res = sg.sat_exact_extract(game, mp, warm_seed=warm)
        assert res.density == 4 and res.certified
        # the incumbent already matches the LP bound, no SAT call is needed
        assert res.work == 0


def test_to_dimacs_format():
    cnf = sg.Cnf(3, [[1, -2], [2, 3]])
    text = sg.to_dimacs(cnf, comments=("hello",))
    lines = text.splitlines()
    assert lines[0] == "c hello"
    assert lines[1] == "p cnf 3 2"
    assert lines[2] == "1 -2 0" and lines[3] == "2 3 0"
