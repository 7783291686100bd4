import pytest

import sparsegames as sg


def _mp(game):
    return sg.most_permissive(game, sg.compute_winning_region(game))


# ---------------------------------------------------------------------------
# chain family


def test_chain_one_has_two_positions_density_one():
    game = sg.gen_chain(1)
    assert len(game.pos_names) == 2
    mp = _mp(game)
    best, _ = sg.brute_force_min_density(game, mp)
    assert best == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_chain_min_density_is_n(n):
    game = sg.gen_chain(n)
    best, witness = sg.brute_force_min_density(game, _mp(game))
    assert best == n
    assert sg.density(game, witness) == n


def test_chain_unique_strategy():
    game = sg.gen_chain(3)
    mp = _mp(game)
    assert all(len(edges) == 1 for edges in mp.moves.values())


def test_chain_deterministic():
    assert sg.gen_chain(5) == sg.gen_chain(5)
    assert sg.serialize_game(sg.gen_chain(5)) == sg.serialize_game(sg.gen_chain(5))


def test_chain_alternates_and_starts_with_player1():
    game = sg.gen_chain(4)
    assert game.init in game.positions1
    for (src, _), dst in game.edges.items():
        assert (src in game.positions0) != (dst in game.positions0)


def test_chain_rejects_nonpositive():
    with pytest.raises(ValueError):
        sg.gen_chain(0)


# ---------------------------------------------------------------------------
# adversarial family


def test_adversarial_sizes_grow_linearly():
    sizes = [len(sg.gen_adversarial(i).pos_names) for i in range(1, 6)]
    diffs = {b - a for a, b in zip(sizes, sizes[1:])}
    assert len(diffs) == 1  # constant increment


def test_adversarial_minimum_is_twice_i():
    for i in (1, 2, 3):
        game = sg.gen_adversarial(i)
        best, _ = sg.brute_force_min_density(game, _mp(game))
        assert best == 2 * i


def test_adversarial_one_min_strictly_below_worst_local_optimum():
    game = sg.gen_adversarial(1)
    best, _ = sg.brute_force_min_density(game, _mp(game))
    optima = sg.enumerate_local_optima(game)
    assert best == min(optima)
    assert max(optima) > best


@pytest.mark.parametrize("i", [1, 2, 3])
def test_adversarial_has_multiple_local_optimum_densities(i):
    optima = sg.enumerate_local_optima(sg.gen_adversarial(i))
    assert optima == set(range(2 * i, 3 * i + 1))


def test_adversarial_four_distinct_local_optima_sampled():
    # i = 4 is beyond the enumeration guard; sample lock outcomes instead.
    game = sg.gen_adversarial(4)
    winning = sg.compute_winning_region(game)
    densities = set()
    for seed in range(40):
        strat = sg.smart_random_extract(game, winning, seed)
        assert sg.is_locally_optimal(game, strat)
        densities.add(sg.density(game, strat))
    assert len(densities) >= 2


def test_adversarial_traps_local_search():
    game = sg.gen_adversarial(4)
    winning = sg.compute_winning_region(game)
    best, _ = sg.brute_force_min_density(game, _mp(game))
    hits = sum(
        1
        for seed in range(2000)
        if sg.density(game, sg.smart_random_extract(game, winning, seed)) == best
    )
    # per-gadget trap probability is exactly 1/2, so the expected hit
    # rate is 1/16; the acceptance threshold is 20%
    assert hits / 2000 <= 0.20


def test_adversarial_alternates_with_player1_init():
    game = sg.gen_adversarial(3)
    assert game.init in game.positions1
    for (src, _), dst in game.edges.items():
        assert (src in game.positions0) != (dst in game.positions0)


def test_adversarial_rejects_nonpositive():
    with pytest.raises(ValueError):
        sg.gen_adversarial(0)


# ---------------------------------------------------------------------------
# random family


def test_random_deterministic_in_parameters():
    a = sg.gen_random(7, 6, 5, 3)
    b = sg.gen_random(7, 6, 5, 3)
    assert a == b
    assert sg.serialize_game(a) == sg.serialize_game(b)
    assert a != sg.gen_random(8, 6, 5, 3)


def test_random_round_trips():
    for seed in range(100):
        game = sg.gen_random(seed, 5, 5, 3)
        assert sg.parse_game(sg.serialize_game(game)) == game


def test_random_solvable_fraction_is_interior():
    solvable = sum(
        1
        for seed in range(300)
        if sg.gen_random(seed, 5, 5, 2).init
        in sg.compute_winning_region(sg.gen_random(seed, 5, 5, 2))
    )
    fraction = solvable / 300
    print(f"gen_random(·,5,5,2) solvable fraction: {fraction:.3f}")
    assert 0.0 < fraction < 1.0


def test_random_respects_sizes_and_degree():
    game = sg.gen_random(3, 7, 4, 3)
    assert len(game.positions0) == 7
    assert len(game.positions1) == 4
    degree = {}
    for (src, _), _dst in game.edges.items():
        degree[src] = degree.get(src, 0) + 1
    assert all(d <= 3 for d in degree.values())


def test_random_degrees_span_zero_to_k():
    # Dead ends are drawn on purpose: a position has 0..k actions.
    degrees = {
        len(edges)
        for seed in range(200)
        for edges in sg.gen_random(seed, 5, 5, 3).out_edges
    }
    assert degrees == {0, 1, 2, 3}


def test_random_rejects_bad_params():
    with pytest.raises(ValueError):
        sg.gen_random(0, 0, 1, 1)
