import itertools

import pytest

import sparsegames as sg

from conftest import (
    full_product_min_density,
    naive_region_without,
    naive_winning_region,
    solvable_random_games,
)
from sparsegames.lp import pruned_context


def _mp(game):
    return sg.most_permissive(game, sg.compute_winning_region(game))


def test_singleton_allowed_sets_return_unique_strategy():
    game = sg.gen_chain(3)
    mp = _mp(game)
    best, witness = sg.brute_force_min_density(game, mp)
    assert best == 3
    assert witness.choice == {"c1": "step", "c2": "step", "c3": "step"}


def test_chain4_against_independent_enumeration_order():
    game = sg.gen_chain(4)
    mp = _mp(game)
    best, _ = sg.brute_force_min_density(game, mp)
    assert best == 4
    assert full_product_min_density(game, mp) == 4


def test_oracle_agrees_with_full_product_on_random_games():
    for game, winning, mp in solvable_random_games(40, 4, 4, 2, max_bits=10):
        fast, _ = sg.brute_force_min_density(game, mp)
        assert fast == full_product_min_density(game, mp)


def test_oracle_below_every_heuristic():
    for idx, (game, winning, mp) in enumerate(
        solvable_random_games(50, 5, 5, 2, max_bits=16)
    ):
        best, _ = sg.brute_force_min_density(game, mp)
        assert best <= sg.density(game, sg.random_extract(game, mp, idx))
        assert best <= sg.density(game, sg.smart_random_extract(game, winning, idx))
        assert best <= sg.density(game, sg.replp_extract(game, mp))


def test_oracle_witness_is_valid_and_minimal(monkeypatch):
    # The witness is the index form of its walk on the caller's game, so
    # neither reader converts it by names.
    monkeypatch.setattr(sg.game, "strategy_moves", None)
    for game, winning, mp in solvable_random_games(40, 5, 5, 2, max_bits=16):
        best, witness = sg.brute_force_min_density(game, mp)
        assert witness._own[0] is game
        assert sg.validate_strategy(game, mp, witness).winning
        assert sg.density(game, witness) == best


def test_oracle_on_a_game_matches_its_pruned_game():
    # Pruning keeps the index order, so both searches branch alike on a
    # game and on its pruned game, and a winning position the walk never
    # reaches changes no local optimum.  Each game here loses positions to
    # pruning; r172 has 20 winning player-0 positions, 14 of them reachable.
    r172 = sg.gen_random(172, 30, 30, 3)
    cases, seed = [(r172, _mp(r172))], 0
    while len(cases) < 201:
        game = sg.gen_random(seed, 4 + seed % 9, 3 + seed % 7, 1 + seed % 3)
        seed += 1
        if game.init in sg.compute_winning_region(game):
            mp = _mp(game)
            if len(pruned_context(game, mp)[0].pos_names) < len(game.pos_names):
                cases.append((game, mp))
    for game, mp in cases:
        pruned, mp2 = pruned_context(game, mp)
        results = []
        for g, m in ((game, mp), (pruned, mp2)):
            best, witness = sg.brute_force_min_density(g, m)
            results.append((best, sg.serialize_strategy(witness), sg.enumerate_local_optima(g)))
        assert results[0] == results[1]
    assert sg.enumerate_local_optima(r172) == {10}


def test_oracle_deterministic():
    game = sg.gen_adversarial(2)
    mp = _mp(game)
    assert sg.brute_force_min_density(game, mp) == sg.brute_force_min_density(game, mp)


def test_search_space_guard():
    # gen_random(6, 30, 10, 4) is winnable with a ~29-bit search space
    game = sg.gen_random(6, 30, 10, 4)
    winning = sg.compute_winning_region(game)
    assert game.init in winning
    mp = sg.most_permissive(game, winning)
    with pytest.raises(sg.SearchSpaceTooLargeError):
        sg.brute_force_min_density(game, mp)


def test_local_optima_saturated_game_is_singleton():
    game = sg.gen_chain(4)
    assert sg.enumerate_local_optima(game) == {4}


def test_local_optima_adversarial_two_or_more():
    assert len(sg.enumerate_local_optima(sg.gen_adversarial(2))) >= 2


def test_smart_densities_inside_enumerated_optima():
    game = sg.gen_adversarial(2)
    winning = sg.compute_winning_region(game)
    optima = sg.enumerate_local_optima(game)
    seen = set()
    for seed in range(200):
        seen.add(sg.density(game, sg.smart_random_extract(game, winning, seed)))
    assert seen <= optima
    assert len(seen) >= 2


def _winnable_random_games(count):
    games, seed = [], 0
    while len(games) < count:
        game = sg.gen_random(seed, 3 + seed % 6, 2 + seed % 4, 1 + seed % 3)
        seed += 1
        if game.init in naive_winning_region(game):
            games.append(game)
    return games


def test_local_optima_match_subset_enumeration():
    # Reference without Arena: every subset Z of the winning player-0
    # positions, decided by the naive rescan of the game without Z's edges.
    several = 0
    for game in [sg.gen_adversarial(1)] + _winnable_random_games(40):
        owner = game.pos_owner
        candidates = [v for v in naive_region_without(game, ()) if owner[v] == 0]
        assert len(candidates) <= 8
        regions = {}
        for size in range(len(candidates) + 1):
            for z in itertools.combinations(candidates, size):
                region = naive_region_without(game, z)
                if game.init_index in region:
                    regions[frozenset(z)] = region
        expected = {
            sg.density(
                game,
                sg.game.decode_support(game, [v in region for v in range(len(owner))]),
            )
            for z, region in regions.items()
            if not any(z < other for other in regions)
        }
        assert sg.enumerate_local_optima(game) == expected
        several += len(expected) > 1
    assert several >= 3


def test_local_optima_guard():
    game = sg.gen_adversarial(4)  # 24 winning player-0 positions
    with pytest.raises(sg.SearchSpaceTooLargeError):
        sg.enumerate_local_optima(game)


def test_local_optima_requires_winnable_game():
    game = sg.SafetyGame.build({"v": 0, "p": 1}, {("p", "z"): "p"}, "v")
    with pytest.raises(sg.InitLosingError):
        sg.enumerate_local_optima(game)
