from collections import deque

import pytest

import sparsegames as sg

from conftest import FIG_GAME, solvable_random_games


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


_EXTRACT = {
    "random": lambda game, mp, seed: sg.random_extract(game, mp, seed),
    "smart": lambda game, mp, seed: sg.smart_random_extract(game, mp.winning, seed),
    "replp": lambda game, mp, seed: sg.replp_extract(game, mp),
    "ilp": lambda game, mp, seed: sg.ilp_exact_extract(game, mp).strategy,
    "sat": lambda game, mp, seed: sg.sat_exact_extract(game, mp).strategy,
}


def test_strategy_is_converted_once_per_game(monkeypatch):
    # On the caller's game, every method's strategy is read from its
    # moves: validate_strategy, density, strategy_to_mealy,
    # restrict_to_reachable and is_locally_optimal convert no names.  A
    # strategy built from the same names converts on each read, and
    # another game converts the extracted one.
    calls = []
    real = sg.game.strategy_moves

    def spy(game, strat):
        calls.append(strat)
        return real(game, strat)

    monkeypatch.setattr(sg.game, "strategy_moves", spy)
    game = sg.gen_adversarial(4)
    mp = _mp(game)
    for extract in _EXTRACT.values():
        strat = extract(game, mp, 3)
        calls.clear()
        _read_all(game, mp, strat)
        assert calls == []
        named = sg.PositionalStrategy(dict(strat.choice))
        _read_all(game, mp, named)
        assert calls == [named] * 5
        sg.density(sg.gen_adversarial(4), strat)
        assert calls == [named] * 5 + [strat]


def _count_walks(monkeypatch):
    """A list that grows by the game of every ``reach`` walk from now on."""
    walks = []
    real = sg.game.reach

    def spy(game, moves):
        walks.append(game)
        return real(game, moves)

    monkeypatch.setattr(sg.game, "reach", spy)
    monkeypatch.setattr(sg.heuristics, "reach", spy)
    return walks


def _read_all(game, mp, strat):
    assert sg.validate_strategy(game, mp, strat).winning
    sg.density(game, strat)
    sg.strategy_to_mealy(game, strat)
    assert sg.restrict_to_reachable(game, strat) == strat
    sg.is_locally_optimal(game, strat)


def test_an_extracted_strategy_is_walked_once(monkeypatch):
    # random_extract and smart_random_extract return the index form of
    # their own walk, which every reader reads on their game without
    # walking again.  A strategy built from the same names walks once per
    # reader.
    game = sg.gen_adversarial(4)
    mp = _mp(game)  # solves the game's fixpoint, itself a walk, first
    walks = _count_walks(monkeypatch)
    for extract in (
        lambda: sg.random_extract(game, mp, 3),
        lambda: sg.smart_random_extract(game, mp.winning, 3),
    ):
        walks.clear()
        strat = extract()
        assert walks == [game]
        _read_all(game, mp, strat)
        assert walks == [game]
        walks.clear()
        named = sg.PositionalStrategy(dict(strat.choice))
        _read_all(game, mp, named)
        assert walks == [game] * 5


def _readings(game, mp, strat):
    """What the readers of a strategy give on ``game``; a fold that
    raises gives its error."""
    try:
        mealy = sg.serialize_mealy(sg.strategy_to_mealy(game, strat))
    except (sg.NotAlternatingError, sg.InitNotPlayer1Error) as exc:
        mealy = repr(exc)
    return (
        sg.serialize_strategy(strat),
        sg.validate_strategy(game, mp, strat),
        sg.density(game, strat),
        mealy,
        sg.restrict_to_reachable(game, strat),
    )


def test_the_index_form_reads_as_its_names():
    # Every method's strategy, read on the caller's game, gives what a
    # strategy built from its names gives: the same bytes, verdict,
    # density, Mealy text and restriction.
    games = [FIG_GAME] + _alternating_corpus()
    games += [game for game, _, _ in solvable_random_games(4, 6, 6, 3)]
    folded = 0
    for game in games:
        mp = _mp(game)
        for method, extract in _EXTRACT.items():
            for seed in range(5):
                strat = extract(game, mp, seed)
                readings = _readings(game, mp, strat)
                assert readings == _readings(game, mp, sg.PositionalStrategy(dict(strat.choice)))
                folded += isinstance(readings[3], bytes)
    assert folded > 0
    assert len(games) == 14


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
