from collections import deque

import pytest

import sparsegames as sg

from conftest import FIG_GAME


def _mp(game):
    return sg.most_permissive(game, sg.compute_winning_region(game))


def test_figure_strategy_folds_to_two_state_machine():
    strat = sg.PositionalStrategy({"g1": "z", "g3": "x"})
    machine = sg.strategy_to_mealy(FIG_GAME, strat)
    assert machine.states == ("g0", "g2")
    assert machine.initial == "g0"
    assert machine.transitions == {
        ("g0", "u"): ("g2", "z"),
        ("g0", "v"): ("g2", "z"),
        ("g2", "u"): ("g0", "x"),
        ("g2", "v"): ("g2", "z"),
    }


def test_machine_run_emits_the_replies_of_an_input_word():
    machine = sg.strategy_to_mealy(FIG_GAME, sg.PositionalStrategy({"g1": "z", "g3": "x"}))
    assert machine.run([]) == []
    assert machine.run(["u", "u", "v", "v", "u"]) == ["z", "x", "z", "z", "x"]
    with pytest.raises(KeyError):
        machine.run(["u", "w"])


def _alternating_corpus():
    games = [sg.gen_chain(n) for n in range(1, 7)]
    games += [sg.gen_adversarial(i) for i in range(1, 4)]
    return games


def test_size_bound_density_plus_one():
    for game in _alternating_corpus():
        winning = sg.compute_winning_region(game)
        mp = sg.most_permissive(game, winning)
        strategies = [
            sg.smart_random_extract(game, winning, 3),
            sg.random_extract(game, mp, 3),
            sg.replp_extract(game, mp),
            sg.ilp_exact_extract(game, mp).strategy,
        ]
        for strat in strategies:
            machine = sg.strategy_to_mealy(game, strat)
            assert len(machine.states) <= sg.density(game, strat) + 1


def _check_traces_stay_winning(game, strat, machine, depth=12):
    """Every machine run, re-expanded to a decision sequence, must keep
    the play inside the winning region (product-graph exploration)."""
    winning = sg.compute_winning_region(game)
    start = (machine.initial, game.init)
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        (state, pos), d = queue.popleft()
        assert pos in winning
        if d >= depth:
            continue
        v = game.pos_index[pos]
        for a, mid_idx in game.out_edges[v]:
            inp = game.act_names[a]
            nxt_state, out = machine.transitions[(state, inp)]
            mid = game.pos_names[mid_idx]
            assert mid in winning
            landed = game.edges[(mid, out)]
            assert landed == nxt_state  # state naming matches positions
            node = (nxt_state, landed)
            if node not in seen:
                seen.add(node)
                queue.append((node, d + 1))


def test_machine_traces_stay_in_winning_region():
    for game in _alternating_corpus():
        winning = sg.compute_winning_region(game)
        strat = sg.smart_random_extract(game, winning, 9)
        machine = sg.strategy_to_mealy(game, strat)
        _check_traces_stay_winning(game, strat, machine)


def test_translation_deterministic():
    game = sg.gen_adversarial(2)
    winning = sg.compute_winning_region(game)
    strat = sg.smart_random_extract(game, winning, 4)
    assert sg.strategy_to_mealy(game, strat) == sg.strategy_to_mealy(game, strat)


def test_not_alternating_rejected():
    game = sg.SafetyGame.build({"p": 1}, {("p", "z"): "p"}, "p")
    with pytest.raises(sg.NotAlternatingError):
        sg.strategy_to_mealy(game, sg.PositionalStrategy({}))


def test_alternation_is_checked_once_per_game():
    # The error names the first same-player edge in index order; the edge
    # is found on the first fold and kept on the game.
    game = sg.SafetyGame.build(
        {"a": 1, "b": 0, "c": 0, "d": 1},
        {("a", "u"): "b", ("b", "x"): "c", ("c", "y"): "d", ("d", "v"): "a"},
        "a",
    )
    message = "edge 'b' -> 'c' stays with the same player"
    with pytest.raises(sg.NotAlternatingError, match=message):
        sg.strategy_to_mealy(game, sg.PositionalStrategy({}))
    assert game.__dict__["same_player_edge"] == (1, 2)
    with pytest.raises(sg.NotAlternatingError, match=message):
        sg.strategy_to_mealy(game, sg.PositionalStrategy({"b": "x"}))
    assert sg.gen_adversarial(3).same_player_edge is None


def test_strategy_is_converted_once_per_game(monkeypatch):
    # validate_strategy, density, strategy_to_mealy, restrict_to_reachable
    # and is_locally_optimal share one conversion of the names in
    # ``choice``, made by the first of them: no extractor makes it for them.
    calls = []
    real = sg.game.strategy_moves

    def spy(game, strat):
        calls.append(strat)
        return real(game, strat)

    monkeypatch.setattr(sg.game, "strategy_moves", spy)
    game = sg.gen_adversarial(4)
    mp = _mp(game)
    extracted = [
        sg.random_extract(game, mp, 3),
        sg.smart_random_extract(game, mp.winning, 3),
        sg.ilp_exact_extract(game, mp).strategy,
    ]
    for strat in extracted:
        calls.clear()
        assert sg.validate_strategy(game, mp, strat).winning
        assert calls == [strat]
        sg.density(game, strat)
        sg.strategy_to_mealy(game, strat)
        restricted = sg.restrict_to_reachable(game, strat)
        sg.is_locally_optimal(game, strat)
        assert calls == [strat]
        assert restricted == strat
        # Another game converts afresh.
        sg.density(sg.gen_adversarial(4), strat)
        assert len(calls) == 2


def test_init_must_be_player1():
    game = sg.SafetyGame.build(
        {"v": 0, "p": 1}, {("v", "x"): "p", ("p", "u"): "v"}, "v"
    )
    with pytest.raises(sg.InitNotPlayer1Error):
        sg.strategy_to_mealy(game, sg.PositionalStrategy({"v": "x"}))


def test_undefined_reachable_choice_rejected():
    game = sg.gen_chain(2)
    with pytest.raises(ValueError):
        sg.strategy_to_mealy(game, sg.PositionalStrategy({}))
    # A choice that names no edge leaves its position undefined.
    bogus = sg.PositionalStrategy({"c1": "bogus", "c2": "step"})
    with pytest.raises(ValueError, match="undefined at reachable position 'c1'"):
        sg.strategy_to_mealy(game, bogus)


def test_serialize_mealy_format():
    strat = sg.PositionalStrategy({"g1": "z", "g3": "x"})
    machine = sg.strategy_to_mealy(FIG_GAME, strat)
    assert sg.serialize_mealy(machine) == (
        b"mealy 2 g0\n"
        b"trans g0 u z g2\n"
        b"trans g0 v z g2\n"
        b"trans g2 u x g0\n"
        b"trans g2 v z g2\n"
    )
