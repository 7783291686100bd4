import hashlib
import warnings

import numpy as np
import pytest

import sparsegames as sg
from sparsegames.game import Arena, reach
from sparsegames.rng import SplitMix64

from conftest import naive_region_without, solvable_random_games


def test_splitmix_reference_vectors():
    # Canonical splitmix64 outputs for state 0.
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_below_rejects_bad_n():
    for n in (0, -1, 2**64 + 1, 2**65):
        with pytest.raises(ValueError):
            SplitMix64(1).below(n)


def test_below_each_rejects_bad_bounds_before_drawing():
    arrays = [np.array([4, 0], dtype=np.uint64), np.array([3, -1], dtype=np.int64)]
    for bounds in [[0], [5, -1], [2**64 + 1], [3, 2**65, 2]] + arrays:
        rng = SplitMix64(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                rng.below_each(bounds)
        assert rng.next_u64() == SplitMix64(1).next_u64()


def _random_bounds():
    draw = SplitMix64(2024)
    return [draw.next_u64() or 1 for _ in range(2000)]


@pytest.mark.parametrize(
    "bounds",
    [
        [],
        [1],
        range(5000, 1, -1),
        # rejection-heavy: about half, a quarter and almost none of the
        # draws are rejected, but every draw of the last needs the exact test
        [2**63 + 1] * 300,
        [3 * 2**62] * 300,
        [2**64 - 1] * 300,
        [7, 2**63 + 1, 2, 2**64 - 1, 3 * 2**62, 1] * 50,
        # 2**64 fits no uint64, so these take the scalar path
        [2**64, 3, 2**64],
        _random_bounds(),
    ],
    ids=["empty", "one", "shuffle5000", "half", "quarter", "top", "mixed",
         "span", "random64"],
)
def test_below_each_matches_scalar_draws(bounds):
    # A list and, where every bound fits one, a uint64 array draw the same;
    # the rejection-heavy batches of either fall back to below().
    forms = [bounds]
    if max(bounds, default=1) < 2**64:
        forms.append(np.array(bounds, dtype=np.uint64))
    for seed in (0, 1, 0xDEADBEEF, 2**64 - 1):
        scalar = SplitMix64(seed)
        expected = [scalar.below(n) for n in bounds]
        after = scalar.next_u64()
        for form in forms:
            batch = SplitMix64(seed)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                drawn = batch.below_each(form)
            assert drawn == expected
            assert all(type(k) is int for k in drawn)
            # the outputs are a bijection of the state: equal next draws
            # mean equal states
            assert batch.next_u64() == after


def _literal_shuffle(rng, items):
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("size", [0, 1, 2, 31, 5000])
def test_shuffle_matches_literal_fisher_yates(size):
    for seed in (0, 7, 2**63):
        fast, literal = SplitMix64(seed), SplitMix64(seed)
        a, b = list(range(size)), list(range(size))
        fast.shuffle(a)
        _literal_shuffle(literal, b)
        assert a == b
        assert fast.next_u64() == literal.next_u64()


def _binary_choice_game():
    return sg.SafetyGame.build(
        {"v": 0, "w1": 1, "w2": 1},
        {("v", "x"): "w1", ("v", "y"): "w2", ("w1", "z"): "w1", ("w2", "z"): "w2"},
        "v",
    )


def test_random_extract_uniform_over_binary_choice():
    game = _binary_choice_game()
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    counts = {"x": 0, "y": 0}
    for seed in range(10_000):
        strat = sg.random_extract(game, mp, seed)
        counts[strat.choice["v"]] += 1
    assert abs(counts["x"] / 10_000 - 0.5) < 0.05


def test_random_extract_singletons_ignore_seed():
    game = sg.gen_chain(4)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    strategies = {tuple(sorted(sg.random_extract(game, mp, s).choice.items()))
                  for s in range(20)}
    assert len(strategies) == 1


def test_random_extract_validates_on_adversarial():
    game = sg.gen_adversarial(3)
    winning = sg.compute_winning_region(game)
    mp = sg.most_permissive(game, winning)
    for seed in (11, 12):
        strat = sg.random_extract(game, mp, seed)
        assert sg.validate_strategy(game, mp, strat).winning


def test_random_extract_deterministic():
    game = sg.gen_adversarial(2)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    assert sg.random_extract(game, mp, 99) == sg.random_extract(game, mp, 99)


def test_random_extract_strategies_are_pinned():
    game = sg.gen_adversarial(2)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    texts = [sg.serialize_strategy(sg.random_extract(game, mp, s)) for s in range(4)]
    assert texts == [
        b"choice e1 B1\nchoice e2 A\nchoice wm1_1 d\nchoice wt1_2 c\nchoice wt2_1 c\n",
        b"choice e1 B2\nchoice e2 B1\nchoice wm1_2 d\nchoice wm2_1 f\n"
        b"choice wt2_2 c\nchoice wt3_1 c\n",
        b"choice e1 B1\nchoice e2 B2\nchoice wm1_1 d\nchoice wm2_2 f\n"
        b"choice wt2_1 c\nchoice wt3_2 c\n",
        b"choice e1 A\nchoice e2 A\nchoice wt1_1 c\nchoice wt1_2 c\n",
    ]


#: (seed, random_extract digest, smart_random_extract digest) on
#: gen_random(30, 2000, 2000, 3), 2,304 winning positions of which 1,209
#: are player 0's; recorded before the draws were batched.
_PINNED_LARGE = (
    (0, "e6831091feb3107c", "eb99ff84ecd3a911"),
    (1, "2e036a6af1fe7ec5", "cc501d2bca0497d3"),
    (2, "276adbf981964e4d", "baced965b8e78537"),
    (3, "2e036a6af1fe7ec5", "2e036a6af1fe7ec5"),
    (4, "f29963e07fad6331", "d3ed7a1c5f862c61"),
)


def test_heuristics_on_a_large_game_are_pinned():
    game = sg.gen_random(30, 2000, 2000, 3)
    winning = sg.compute_winning_region(game)
    mp = sg.most_permissive(game, winning)

    def digest(strat):
        return hashlib.sha256(sg.serialize_strategy(strat)).hexdigest()[:16]

    got = tuple(
        (seed, digest(sg.random_extract(game, mp, seed)),
         digest(sg.smart_random_extract(game, winning, seed)))
        for seed, *_ in _PINNED_LARGE
    )
    assert got == _PINNED_LARGE


def test_random_extract_raises_on_losing_game():
    game = sg.SafetyGame.build({"v": 0, "p": 1}, {("p", "z"): "p"}, "v")
    winning = sg.compute_winning_region(game)
    mp = sg.MostPermissiveStrategy(winning=winning, moves={})
    with pytest.raises(sg.InitLosingError):
        sg.random_extract(game, mp, 0)


def test_smart_raises_when_its_own_fixpoint_loses_init():
    # The caller's region claims every position wins; the arena's own
    # fixpoint shows that init loses, which must not reach the decoder.
    game = sg.gen_random(1, 6, 6, 2)
    assert game.init not in sg.compute_winning_region(game)
    with pytest.raises(sg.InitLosingError):
        sg.smart_random_extract(game, frozenset(game.pos_names), 0)


def test_smart_deterministic():
    game = sg.gen_adversarial(3)
    winning = sg.compute_winning_region(game)
    assert sg.smart_random_extract(game, winning, 5) == sg.smart_random_extract(
        game, winning, 5
    )


def test_smart_saturated_game_keeps_all_positions():
    # Chains admit exactly one winning strategy, so nothing is deletable.
    game = sg.gen_chain(4)
    winning = sg.compute_winning_region(game)
    strat = sg.smart_random_extract(game, winning, 3)
    assert sg.density(game, strat) == 4
    assert set(strat.choice) == set(game.positions0)


def test_smart_outputs_locally_optimal():
    for idx, (game, winning, mp) in enumerate(solvable_random_games(120, 6, 5, 3)):
        strat = sg.smart_random_extract(game, winning, idx)
        assert sg.validate_strategy(game, mp, strat).winning
        assert sg.is_locally_optimal(game, strat)


def test_smart_densities_bounded_by_oracle():
    for idx, (game, winning, mp) in enumerate(
        solvable_random_games(60, 5, 5, 2, max_bits=16)
    ):
        best, _ = sg.brute_force_min_density(game, mp)
        assert sg.density(game, sg.smart_random_extract(game, winning, idx)) >= best


def test_random_extract_sometimes_not_locally_optimal():
    game = sg.gen_adversarial(4)
    winning = sg.compute_winning_region(game)
    mp = sg.most_permissive(game, winning)
    found = False
    for seed in range(60):
        strat = sg.random_extract(game, mp, seed)
        if not sg.is_locally_optimal(game, strat):
            found = True
            break
    assert found, "no seed produced a non-locally-optimal random strategy"


def test_adversarial1_lock_outcomes_are_local_optima():
    game = sg.gen_adversarial(1)
    winning = sg.compute_winning_region(game)
    mp = sg.most_permissive(game, winning)
    best, _ = sg.brute_force_min_density(game, mp)
    densities = set()
    for seed in range(200):
        strat = sg.smart_random_extract(game, winning, seed)
        assert sg.is_locally_optimal(game, strat)
        densities.add(sg.density(game, strat))
    assert densities == {2, 3}
    assert best == 2
    assert max(densities) > best


def test_local_optimality_is_relative_to_the_undefined_set():
    # Two interchangeable mid positions u and v: either alone can be left
    # undefined, but not both.  When the search drops u first, the final
    # strategy routes through v.  Judging v by deleting it *alone* would
    # call that strategy improvable (the u route still exists in the full
    # game), yet no strategy that also avoids the already-dropped u can
    # do better, so the output is locally optimal.
    game = sg.SafetyGame.build(
        {"i": 0, "mu": 1, "mv": 1, "u": 0, "v": 0, "s": 1},
        {
            ("i", "a"): "mu",
            ("i", "b"): "mv",
            ("mu", "t"): "u",
            ("mv", "t"): "v",
            ("u", "x"): "s",
            ("v", "x"): "s",
            ("s", "z"): "s",
        },
        "i",
    )
    winning = sg.compute_winning_region(game)
    mp = sg.most_permissive(game, winning)
    through_v = None
    for seed in range(64):
        strat = sg.smart_random_extract(game, winning, seed)
        assert sg.is_locally_optimal(game, strat)
        assert sg.density(game, strat) == 2
        if "v" in strat.choice:
            through_v = strat
    assert through_v is not None
    # single-position deletion in the full game would judge v droppable
    arena = Arena(game)
    assert arena.try_delete(game.pos_index["v"])


def _naive_locally_optimal(game, strat):
    """Reference: walk the strategy from init over names, then, for each
    player-0 position it reaches, delete that position and every player-0
    position it leaves unreached, and re-solve with a naive rescan."""
    owner, out, names, acts = game.pos_owner, game.out_edges, game.pos_names, game.act_names
    reached, stack = {game.init_index}, [game.init_index]
    while stack:
        v = stack.pop()
        for a, d in out[v]:
            if (owner[v] or strat.choice.get(names[v]) == acts[a]) and d not in reached:
                reached.add(d)
                stack.append(d)
    domain = {v for v in reached if owner[v] == 0}
    undefined = {v for v in range(len(owner)) if owner[v] == 0} - domain
    return all(
        game.init_index not in naive_region_without(game, undefined | {v}) for v in domain
    )


def test_local_optimality_matches_a_naive_resolve():
    verdicts = set()
    for idx, (game, winning, mp) in enumerate(solvable_random_games(30, 5, 5, 3)):
        strategies = [sg.smart_random_extract(game, winning, idx), sg.random_extract(game, mp, idx)]
        strategies.append(sg.ilp_exact_extract(game, mp).strategy)
        for strat in strategies:
            verdict = sg.is_locally_optimal(game, strat)
            assert verdict == _naive_locally_optimal(game, strat)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_empty_domain_strategy_vacuously_locally_optimal():
    game = sg.SafetyGame.build({"p": 1}, {("p", "z"): "p"}, "p")
    assert sg.is_locally_optimal(game, sg.PositionalStrategy({}))


def _literal_smart(game, winning, seed):
    """Reference implementation of the local search: rebuild the game and
    re-solve the fixpoint from scratch for every tentative deletion."""
    rng = SplitMix64(seed)
    order = [p for p in sorted(winning) if p in game.positions0]
    rng.shuffle(order)
    owners = {p: game.pos_owner[game.pos_index[p]] for p in game.pos_names}
    edges = dict(game.edges)
    for pos in order:
        trimmed = {e: d for e, d in edges.items() if e[0] != pos}
        candidate = sg.SafetyGame.build(owners, trimmed, game.init)
        if game.init in sg.compute_winning_region(candidate):
            edges = trimmed
    residual = sg.SafetyGame.build(owners, edges, game.init)
    res_winning = sg.compute_winning_region(residual)
    choice = {}
    for pos in sorted(res_winning & game.positions0):
        v = residual.pos_index[pos]
        for a, d in residual.out_edges[v]:
            if residual.pos_names[d] in res_winning:
                choice[pos] = residual.act_names[a]
                break
    return sg.restrict_to_reachable(game, sg.PositionalStrategy(choice))


def test_smart_matches_literal_resolve_implementation():
    # The production cascade-with-rollback must be observationally
    # identical to deleting edges and re-solving from scratch.
    cases = [(sg.gen_adversarial(2), 17), (sg.gen_adversarial(3), 4)]
    for idx, (game, winning, mp) in enumerate(solvable_random_games(60, 6, 5, 3)):
        cases.append((game, idx))
    for game, seed in cases:
        winning = sg.compute_winning_region(game)
        fast = sg.smart_random_extract(game, winning, seed)
        literal = _literal_smart(game, winning, seed)
        assert fast == literal


def _literal_random(game, mp, seed):
    """Reference draw: a (position, allowed edges) list over the winning
    player-0 positions in index order, one move per entry, the whole
    moves dict walked by ``reach``, and the named choices it reaches."""
    owner = game.pos_owner
    choices = [(v, e) for v, e in mp.moves.items() if not owner[v]]
    picks = SplitMix64(seed).below_each([len(e) for _, e in choices])
    moves = {v: (e[k],) for (v, e), k in zip(choices, picks)}
    _, parent = reach(game, moves.get)
    names, acts = game.pos_names, game.act_names
    return sg.PositionalStrategy(
        {names[v]: acts[e[0][0]] for v, e in moves.items() if parent[v] >= 0}
    )


def test_random_matches_literal_draw():
    # The draw builds a move only where its walk goes; the choices must be
    # those of drawing every move first and keeping the reached ones.
    cases = [sg.gen_chain(16), sg.gen_adversarial(3), sg.gen_adversarial(6)]
    cases += [game for game, _, _ in solvable_random_games(30, 8, 6, 3)]
    for game in cases:
        mp = sg.most_permissive(game, sg.compute_winning_region(game))
        for seed in range(5):
            fast = sg.random_extract(game, mp, seed)
            assert fast == _literal_random(game, mp, seed)
            assert sg.validate_strategy(game, mp, fast).winning


def test_smart_on_a_chain_rejects_every_deletion_without_a_cascade(monkeypatch):
    # Every chain position is in the forced closure, so each tentative
    # deletion stops at its own flag: each candidate fails and rolls back
    # ([v], []) from the arena's buffers, and no position beyond v is
    # killed or decremented.
    game = sg.gen_chain(64)
    rolled_back = []
    try_delete = Arena.try_delete

    def spy(self, v):
        ok = try_delete(self, v)
        rolled_back.append((ok, list(self.killed), list(self.decremented)))
        return ok

    monkeypatch.setattr(Arena, "try_delete", spy)
    strat = sg.smart_random_extract(game, sg.compute_winning_region(game), 0)
    assert sg.density(game, strat) == 64
    candidates = [v for v, o in enumerate(game.pos_owner) if o == 0]
    assert len(rolled_back) == 64
    assert sorted(killed[0] for _, killed, _ in rolled_back) == candidates
    assert all(
        not ok and len(killed) == 1 and not decremented
        for ok, killed, decremented in rolled_back
    )


def test_smart_tries_each_winning_position_once(monkeypatch):
    # One try_delete per winning player-0 position: the benchmark's traced
    # try_delete count and kept ratio count exactly these calls.
    game = sg.gen_adversarial(4)
    tried = []
    try_delete = Arena.try_delete

    def spy(self, v):
        tried.append(v)
        return try_delete(self, v)

    monkeypatch.setattr(Arena, "try_delete", spy)
    winning = sg.compute_winning_region(game)
    sg.smart_random_extract(game, winning, 3)
    candidates = [game.pos_index[p] for p in winning if p in game.positions0]
    assert sorted(tried) == sorted(candidates)


def test_smart_respects_deadline():
    game = sg.gen_adversarial(50)
    winning = sg.compute_winning_region(game)
    with pytest.raises(sg.TimeoutExceededError):
        sg.smart_random_extract(game, winning, 0, deadline=0.0)


def test_local_optimality_rejects_non_winning_strategy():
    game = sg.SafetyGame.build(
        {"v": 0, "w": 1}, {("v", "x"): "w", ("w", "z"): "v"}, "v"
    )
    with pytest.raises(ValueError, match="not winning"):
        sg.is_locally_optimal(game, sg.PositionalStrategy({}))


@pytest.mark.parametrize(
    "positions,edges,init,choice",
    [
        # a's choice x leads to the dead end d; its other action y wins.
        ({"m": 1, "a": 0, "d": 0}, {("m", "go"): "a", ("a", "x"): "d", ("a", "y"): "m"},
         "m", {"a": "x"}),
        # init itself is a losing dead end.
        ({"a": 0}, {}, "a", {}),
    ],
    ids=["dead-end-choice", "init-losing"],
)
def test_local_optimality_rejects_losing_strategy(positions, edges, init, choice):
    game = sg.SafetyGame.build(positions, edges, init)
    strat = sg.PositionalStrategy(choice)
    winning = sg.compute_winning_region(game)
    if game.init in winning:
        mp = sg.most_permissive(game, winning)
        assert not sg.validate_strategy(game, mp, strat).winning
    with pytest.raises(ValueError, match="not winning"):
        sg.is_locally_optimal(game, strat)


def test_local_optimality_judges_only_the_reachable_domain():
    # wm1_1 is unreachable once e1 takes A, so its choice is not part of
    # the domain; the strategy is the same as its restriction.
    game = sg.gen_adversarial(1)
    strat = sg.PositionalStrategy({"e1": "A", "wt1_1": "c", "wm1_1": "c"})
    restricted = sg.restrict_to_reachable(game, strat)
    assert restricted.choice == {"e1": "A", "wt1_1": "c"}
    assert sg.is_locally_optimal(game, restricted)
    assert sg.is_locally_optimal(game, strat)


def test_local_optimality_rejects_undeclared_position():
    strat = sg.PositionalStrategy({"nope": "step"})
    with pytest.raises(ValueError, match="not winning"):
        sg.is_locally_optimal(sg.gen_chain(2), strat)
