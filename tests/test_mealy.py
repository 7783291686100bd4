import copy
import dataclasses
import functools
import hashlib
import pickle
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


# Player-1 states m, m! and m\x01 take index order m < m\x01 < m!, while
# their trans lines sort as "m\x01 " < "m " < "m! ", so the text's order is
# not the index order.
_BYTE_ORDER_GAME = sg.SafetyGame.build(
    {"m": 1, "m!": 1, "m\x01": 1, "a": 0, "b": 0, "c": 0},
    {
        ("m", "u"): "a",
        ("m", "v"): "b",
        ("a", "x"): "m!",
        ("a", "y"): "m\x01",
        ("b", "x"): "m\x01",
        ("m!", "u"): "c",
        ("m\x01", "u"): "c",
        ("m\x01", "v"): "a",
        ("c", "x"): "m",
        ("c", "y"): "m!",
    },
    "m",
)
# A player-1 init without edges folds to a header-only machine.
_HEADER_ONLY_GAME = sg.SafetyGame.build({"p": 1}, {}, "p")


@functools.lru_cache(maxsize=None)
def _mealy_panel():
    """(panel label, game, strategy) for every method's strategy, seeds
    0-2, on chains 1-16, adversarial games 1-24 and the two games above."""
    panel = {
        "chain": [sg.gen_chain(n) for n in range(1, 17)],
        "adversarial": [sg.gen_adversarial(i) for i in range(1, 25)],
        "names": [_BYTE_ORDER_GAME],
        "header": [_HEADER_ONLY_GAME],
    }
    cases = []
    for label, games in panel.items():
        for game in games:
            mp = _mp(game)
            for extract in _EXTRACT.values():
                for seed in range(3):
                    cases.append((label, game, extract(game, mp, seed)))
    return tuple(cases)


# Recorded on the name-keyed fold, before the index form.
_PINNED_MEALY = {
    "chain": "88332ee33cf62555",
    "adversarial": "78fa88cb9d866947",
    "names": "0b824726440f6d46",
    "header": "6b295c434a2e8301",
}


def test_mealy_text_is_pinned():
    digests = {label: hashlib.sha256() for label in _PINNED_MEALY}
    for label, game, strat in _mealy_panel():
        digests[label].update(sg.serialize_mealy(sg.strategy_to_mealy(game, strat)))
    assert {label: h.hexdigest()[:16] for label, h in digests.items()} == _PINNED_MEALY
    header_only = sg.strategy_to_mealy(_HEADER_ONLY_GAME, sg.PositionalStrategy({}))
    assert sg.serialize_mealy(header_only) == b"mealy 1 p\n"


def _name_keyed_fold(game, strat):
    """Reference fold: a breadth-first walk over player-1 position names,
    taking every edge of a player-1 position and then the strategy's
    named reply, with each transition keyed by names as it is found."""
    choice, edges = strat.choice, game.edges
    inputs = {}
    for p, a in edges:
        inputs.setdefault(p, []).append(a)
    order, seen, transitions = [game.init], {game.init}, {}
    for p in order:  # grows as the walk finds states
        for a in sorted(inputs.get(p, ())):
            mid = edges[(p, a)]
            reply = choice.get(mid)
            if (mid, reply) not in edges:
                raise ValueError(f"strategy undefined at reachable position {mid!r}")
            nxt = edges[(mid, reply)]
            transitions[(p, a)] = (nxt, reply)
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    return sg.MealyMachine(tuple(sorted(order)), game.init, transitions)


def _run_or_error(machine, word):
    try:
        return machine.run(word)
    except KeyError as exc:
        return repr(exc)


def _fold_or_error(fold, game, strat):
    try:
        return fold(game, strat)
    except ValueError as exc:
        return str(exc)


def test_fold_matches_name_keyed_reference():
    # The index-form machine names the states, initial state and
    # transitions, and runs every input word, as the reference does, in
    # the same order; a strategy without all or half of its moves fails
    # with the same error.
    rng = sg.SplitMix64(36)
    checked = errors = 0
    for _, game, extracted in _mealy_panel():
        half = dict(sorted(extracted.choice.items())[1::2])
        for strat in (extracted, sg.PositionalStrategy({}), sg.PositionalStrategy(half)):
            mine = _fold_or_error(sg.strategy_to_mealy, game, strat)
            ref = _fold_or_error(_name_keyed_fold, game, strat)
            if isinstance(ref, str):
                assert mine == ref
                errors += 1
                continue
            assert (mine.states, mine.initial, mine.transitions) == (
                ref.states,
                ref.initial,
                ref.transitions,
            )
            assert list(mine.transitions) == list(ref.transitions)
            alphabet = sorted({a for _, a in ref.transitions} | {"bogus"})
            for _ in range(4):
                word = [alphabet[rng.below(len(alphabet))] for _ in range(rng.below(12))]
                assert _run_or_error(mine, word) == _run_or_error(ref, word)
            assert sg.serialize_mealy(mine) == sg.serialize_mealy(ref)
            checked += 1
    assert checked > 600 and errors > 1000


def test_a_folded_machine_behaves_as_its_names():
    # A folded machine keeps its game's index arrays and names each field
    # on first read; reading the states builds no transitions.  Read fresh
    # each time, it compares, prints, pickles, copies and refuses writes
    # and hashing as the machine built from its names does.
    game = sg.gen_adversarial(4)
    mp = _mp(game)
    strat = sg.random_extract(game, mp, 1)

    def make():
        return sg.strategy_to_mealy(game, strat)

    folded = make()
    assert not {"states", "initial", "transitions"} & vars(folded).keys()
    assert len(folded.states) > 5 and "transitions" not in vars(folded)
    named = sg.MealyMachine(folded.states, make().initial, dict(make().transitions))
    assert make() == named and named == make()
    assert repr(make()) == repr(named)
    for copied in (pickle.loads(pickle.dumps(make())), copy.deepcopy(make())):
        assert copied == named and repr(copied) == repr(named)
        assert copied._own is None
    assert pickle.dumps(make()) == pickle.dumps(named)
    for machine in (make(), named):
        with pytest.raises(dataclasses.FrozenInstanceError):
            machine.states = ()
        with pytest.raises(TypeError):
            hash(machine)
        with pytest.raises(AttributeError):
            machine.bogus
