import copy
import gc
import importlib.util
import json
import pickle
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sparsegames as sg
from sparsegames.errors import GameFormatError, InitLosingError
from sparsegames.lp import pruned_context

from conftest import (
    FIG_GAME,
    allowed_names,
    full_cnf,
    gap_game,
    naive_region_without,
    naive_winning_region,
    reference_fixpoint,
    solvable_random_games,
    unchecked_most_permissive,
)


# ---------------------------------------------------------------------------
# parsing and serialization


def test_parse_minimal_game():
    game = sg.parse_game(b"pos a 0\npos b 1\ninit a\n")
    assert game.positions0 == {"a"}
    assert game.positions1 == {"b"}
    assert game.init == "a"
    assert game.edges == {}


def test_parse_duplicate_edge_rejected():
    text = b"pos a 0\npos b 1\npos c 1\ninit a\nedge a x b\nedge a x c\n"
    with pytest.raises(GameFormatError, match="duplicate edge"):
        sg.parse_game(text)


@pytest.mark.parametrize(
    "text,pattern",
    [
        (b"pos a 0\ninit a\nedge a x b\n", "undeclared"),
        (b"pos a 0\n", "missing init"),
        (b"pos a 0\npos a 1\ninit a\n", "duplicate position"),
        (b"pos a 2\ninit a\n", "owner"),
        (b"init a\npos a 0\n", "undeclared"),
        (b"pos a 0\ninit a\ninit a\n", "more than once"),
        (b"pos a 0\nfrob a\ninit a\n", "unknown record"),
        (b"pos a 0\npos b 1\ninit a\nedge a x a\nedge b x b\n", "both players"),
    ],
)
def test_parse_errors(text, pattern):
    with pytest.raises(GameFormatError, match=pattern):
        sg.parse_game(text)


@pytest.mark.parametrize(
    "positions,edges,init,pattern",
    [
        ({"a": 2}, {}, "a", "owner"),
        ({"a": 0}, {}, "b", "not declared"),
        ({"a": 0}, {("b", "x"): "a"}, "a", "source"),
        ({"a": 0}, {("a", "x"): "b"}, "a", "target"),
        ({"a": 0, "b": 1}, {("a", "x"): "b", ("b", "x"): "a"}, "a", "both players"),
        # Names that serialize_game could write but parse_game not read back.
        ({"a b": 1, "q": 0}, {("a b", "t"): "q", ("q", "u"): "a b"}, "a b", "whitespace"),
        ({"": 0}, {}, "", "empty"),
        ({"a#": 0}, {}, "a#", "'#'"),
        ({"a": 1}, {("a", "t\tu"): "a"}, "a", "whitespace"),
        ({"a": 1}, {("a", ""): "a"}, "a", "empty"),
        ({"a": 1}, {("a", "#t"): "a"}, "a", "'#'"),
        # Owners whose text form serialize_game would write as neither 0 nor 1.
        ({"a": True}, {}, "a", "owner"),
        ({"a": False}, {}, "a", "owner"),
        ({"a": 1.0}, {}, "a", "owner"),
    ],
)
def test_build_errors(positions, edges, init, pattern):
    with pytest.raises(GameFormatError, match=pattern):
        sg.SafetyGame.build(positions, edges, init)


def test_build_stores_owners_as_ints():
    game = sg.SafetyGame.build({"a": np.int64(1), "b": np.int64(0)}, {}, "a")
    assert [type(o) for o in game.pos_owner] == [int, int]
    assert sg.parse_game(sg.serialize_game(game)) == game


def _malformed_records(game):
    """Three bad edges for ``game``, one per edge check: an undeclared
    source, an undeclared target, and a player-0 action taken from a
    player-1 position."""
    p, q = min(game.positions0), min(game.positions1)
    a = min(a for a, o in zip(game.act_names, game.act_owner) if o == 0)
    return [("ghost", "a0", p), (p, "a0", "ghost"), (q, a, p)]


def test_parse_and_build_reject_bad_edges_alike():
    checked = 0
    for seed in range(40):
        game = sg.gen_random(seed, 4, 4, 3)
        if 0 not in game.act_owner:
            continue
        positions = dict(zip(game.pos_names, game.pos_owner))
        for src, act, dst in _malformed_records(game):
            text = sg.serialize_game(game) + f"edge {src} {act} {dst}\n".encode()
            with pytest.raises(GameFormatError) as parsed:
                sg.parse_game(text)
            with pytest.raises(GameFormatError) as built:
                sg.SafetyGame.build(positions, {**game.edges, (src, act): dst}, game.init)
            line = parsed.value.line
            assert line == text.count(b"\n")
            assert str(parsed.value) == f"line {line}: {built.value}"
            checked += 1
    assert checked >= 90


@pytest.mark.parametrize(
    "record,pattern",
    [
        ("pos b", "expected 'pos <id> <owner>'"),
        ("pos b 1 x", "expected 'pos <id> <owner>'"),
        ("init", "expected 'init <id>'"),
        ("init a b", "expected 'init <id>'"),
        ("edge a x", "expected 'edge <src> <action> <dst>'"),
        ("edge a x a y", "expected 'edge <src> <action> <dst>'"),
    ],
)
def test_parse_rejects_records_of_the_wrong_arity(record, pattern):
    text = f"pos a 1\n# comment\n\n{record}\ninit a\n"
    with pytest.raises(GameFormatError, match=pattern) as err:
        sg.parse_game(text)
    assert err.value.line == 4
    assert str(err.value) == f"line 4: {pattern}"


def test_game_repr_counts_positions_and_edges():
    assert repr(sg.gen_adversarial(1)) == "SafetyGame(|V0|=6, |V1|=7, edges=17, init='M')"
    assert repr(sg.gen_chain(2)) == "SafetyGame(|V0|=2, |V1|=2, edges=4, init='m1')"


def test_parse_error_carries_line_number():
    with pytest.raises(GameFormatError) as err:
        sg.parse_game(b"pos a 0\n# comment\npos a 0\n")
    assert err.value.line == 3


def test_parse_rejects_invalid_utf8():
    with pytest.raises(GameFormatError, match="UTF-8"):
        sg.parse_game(b"pos a 0\xff\ninit a\n")


def test_roundtrip_generator_families():
    games = [sg.gen_chain(n) for n in range(1, 9)]
    games += [sg.gen_adversarial(i) for i in range(1, 5)]
    games += [sg.gen_random(seed, 4, 4, 3) for seed in range(8)]
    for game in games:
        text = sg.serialize_game(game)
        again = sg.parse_game(text)
        assert again == game
        assert sg.serialize_game(again) == text


def test_roundtrip_many_random_games():
    for seed in range(500):
        game = sg.gen_random(seed, 5, 4, 3)
        assert sg.parse_game(sg.serialize_game(game)) == game


# Free-form tokens: any characters but whitespace and the comment mark.
# A small alphabet mixed in makes tokens share prefixes, and "\x01" sorts
# below the separating space.
_TOKENS = st.text(
    st.sampled_from("a\x01") | st.characters(blacklist_categories=("Cs",)).filter(
        lambda c: not c.isspace() and c != "#"
    ),
    min_size=1,
    max_size=4,
)


@st.composite
def _game_maps(draw):
    """Owner map, edge map and init of an arbitrary valid game."""
    owners = draw(st.dictionaries(_TOKENS, st.integers(0, 1), min_size=1, max_size=8))
    act_owner = draw(st.dictionaries(_TOKENS, st.integers(0, 1), max_size=6))
    names = sorted(owners)
    edges = {}
    for src in names:
        own = sorted(a for a, o in act_owner.items() if o == owners[src])
        for act in draw(st.lists(st.sampled_from(own), unique=True) if own else st.just([])):
            edges[(src, act)] = draw(st.sampled_from(names))
    return owners, edges, draw(st.sampled_from(names))


def _shuffled_text(owners, edges, init, rnd) -> str:
    """The game's records in a random order that declares each position
    before the records that name it."""
    pos_lines = [f"pos {p} {o}" for p, o in owners.items()]
    rnd.shuffle(pos_lines)
    declared = {line.split()[1]: k for k, line in enumerate(pos_lines)}
    later = [(declared[init], f"init {init}")] + [
        (max(declared[src], declared[dst]), f"edge {src} {act} {dst}")
        for (src, act), dst in edges.items()
    ]
    rnd.shuffle(later)
    slots = [[] for _ in pos_lines]
    for first, line in later:
        slots[rnd.randint(first, len(pos_lines) - 1)].append(line)
    return "".join(
        f"{pos}\n" + "".join(f"{line}\n" for line in slot)
        for pos, slot in zip(pos_lines, slots)
    )


@given(_game_maps(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_parse_serialize_build_agree_on_arbitrary_tokens(maps, rnd):
    owners, edges, init = maps
    built = sg.SafetyGame.build(owners, edges, init)
    text = sg.serialize_game(built)
    lines = [f"pos {p} {o}" for p, o in sorted(owners.items())] + [f"init {init}"]
    lines += sorted(f"edge {src} {act} {dst}" for (src, act), dst in edges.items())
    assert text.decode() == "".join(f"{line}\n" for line in lines)
    assert built.edges == edges
    assert dict(zip(built.pos_names, built.pos_owner)) == owners
    for _ in range(3):
        game = sg.parse_game(_shuffled_text(owners, edges, init, rnd))
        assert game == built
        assert game.edges == edges
        assert sg.serialize_game(game) == text
    assert sg.parse_game(text) == built


def test_serialize_deterministic():
    game = sg.gen_adversarial(2)
    assert sg.serialize_game(game) == sg.serialize_game(game)


def test_comments_and_blank_lines_ignored():
    text = b"# header\n\npos a 0  # trailing\npos b 1\ninit a\nedge a x b # e\n"
    game = sg.parse_game(text)
    assert game.edges == {("a", "x"): "b"}


# ---------------------------------------------------------------------------
# winning region


def test_player1_selfloop_is_winning():
    game = sg.SafetyGame.build({"p": 1}, {("p", "z"): "p"}, "p")
    assert sg.compute_winning_region(game) == {"p"}


def test_player0_dead_end_is_losing():
    game = sg.SafetyGame.build(
        {"q": 0, "p": 1}, {("p", "z"): "p"}, "p"
    )
    assert "q" not in sg.compute_winning_region(game)


def test_fixpoint_matches_naive_rescan_on_adversarial():
    game = sg.gen_adversarial(2)
    assert sg.compute_winning_region(game) == naive_winning_region(game)


@pytest.mark.parametrize("seed", range(120))
def test_fixpoint_matches_naive_rescan_random(seed):
    game = sg.gen_random(seed, 6, 5, 3)
    assert sg.compute_winning_region(game) == naive_winning_region(game)


@given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_fixpoint_soundness_and_maximality(seed, n0, n1, k):
    game = sg.gen_random(seed, n0, n1, k)
    winning = sg.compute_winning_region(game)
    win_idx = {game.pos_index[p] for p in winning}
    for v in range(len(game.pos_names)):
        out_in = [d for _, d in game.out_edges[v] if d in win_idx]
        if v in win_idx:
            if game.pos_owner[v] == 0:
                assert out_in, "winning player-0 position must keep a move"
            else:
                assert all(d in win_idx for _, d in game.out_edges[v])
        else:
            # adding v back must violate a condition
            extended = win_idx | {v}
            out_ext = [d for _, d in game.out_edges[v] if d in extended]
            if game.pos_owner[v] == 0:
                assert not out_ext
            else:
                assert any(d not in extended for _, d in game.out_edges[v])


@given(st.integers(0, 10**6), st.integers(2, 6), st.integers(2, 6), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_player0_edge_removal_never_enlarges_winning_region(seed, n0, n1, k):
    # Removing a player-0 edge only takes options away from player 0, so
    # the winning region shrinks or stays.  (Removing a *player-1* edge
    # can enlarge it, since it weakens the adversary; the local search
    # only ever deletes player-0 edges.)
    game = sg.gen_random(seed, n0, n1, k)
    p0_edges = sorted(
        e for e in game.edges if game.pos_owner[game.pos_index[e[0]]] == 0
    )
    if not p0_edges:
        return
    before = sg.compute_winning_region(game)
    victim = p0_edges[seed % len(p0_edges)]
    edges = {e: d for e, d in game.edges.items() if e != victim}
    owners = {p: game.pos_owner[game.pos_index[p]] for p in game.pos_names}
    smaller = sg.SafetyGame.build(owners, edges, game.init)
    assert sg.compute_winning_region(smaller) <= before


@given(
    st.integers(0, 10**6), st.integers(2, 6), st.integers(1, 4), st.integers(1, 2),
    st.lists(st.tuples(st.integers(0, 10**6), st.booleans()), max_size=12),
)
@settings(max_examples=120, deadline=None)
def test_arena_deletions_match_naive_rescan(seed, n0, n1, k, ops):
    # With one or two actions per position about half of the live
    # deletions lose init, so most draws roll back and learn doomed
    # positions.  A peek op deletes on a copy, which answers the same and
    # leaves the arena untouched.
    game = sg.gen_random(seed, n0, n1, k)
    arena = sg.game.Arena(game)
    if not arena.alive[game.init_index]:
        return
    p0 = [v for v in range(len(game.pos_names)) if game.pos_owner[v] == 0]
    deleted: set[int] = set()
    region = naive_region_without(game, deleted)
    for pick, peek in ops:
        v = p0[pick % len(p0)]
        expected = v not in region or game.init_index in naive_region_without(game, deleted | {v})
        before = (arena.alive[:], arena.cnt[:], arena.doomed[:])
        target = arena.copy() if peek else arena
        assert target.try_delete(v) == expected
        if not expected:
            # The flag just learned answers a repeat without a cascade.
            assert not target.try_delete(v)
        elif not peek:
            deleted.add(v)
            region = naive_region_without(game, deleted)
        if peek:
            assert (arena.alive, arena.cnt, arena.doomed) == before
        assert [u for u, a in enumerate(arena.alive) if a] == sorted(region)
        for u in region:
            if game.pos_owner[u] == 0:
                assert arena.cnt[u] == sum(d in region for _, d in game.out_edges[u])
            else:
                assert arena.cnt[u] == len(game.out_edges[u])


def test_arena_rollback_after_doomed_stop_restores_state():
    # Deleting u decrements a, then kills b (a player-1 position) and c.
    # c was doomed by a failed deletion, so the cascade stops at c before
    # it reaches init z.  w offers two targets, so the forced closure
    # flagged at construction ends there and c is doomed only by that
    # failed deletion.
    game = sg.SafetyGame.build(
        {"a": 0, "b": 1, "c": 0, "p": 1, "q": 1, "s": 1, "u": 0, "w": 0, "z": 1},
        {
            ("a", "x"): "u", ("a", "y"): "s",
            ("b", "r"): "u",
            ("c", "x"): "u",
            ("p", "r"): "c", ("p", "t"): "s",
            ("q", "r"): "c", ("q", "t"): "s",
            ("s", "r"): "s",
            ("u", "x"): "s",
            ("w", "x"): "p", ("w", "y"): "q",
            ("z", "r"): "w",
        },
        "z",
    )
    idx = game.pos_index
    arena = sg.game.Arena(game)
    assert not arena.try_delete(idx["c"])
    alive, cnt = list(arena.alive), list(arena.cnt)
    assert not arena.try_delete(idx["u"])
    # The cascade's buffers hold what it rolled back.
    assert arena.killed == [idx["u"], idx["b"], idx["c"]]
    assert arena.decremented == [idx["a"], idx["c"]]
    assert arena.alive == alive
    assert arena.cnt == cnt
    assert game.init_index not in naive_region_without(game, {idx["u"]})


def test_arena_cascade_visits_breadth_first():
    # Deleting u kills a and b, then c (through a) and d (through b), and
    # decrements init z, which keeps s.  The deletion is kept, and its
    # buffers show the kill order: first in, first out.
    game = sg.SafetyGame.build(
        {"a": 1, "b": 1, "c": 1, "d": 1, "s": 1, "u": 0, "z": 0},
        {
            ("a", "r"): "u", ("b", "r"): "u",
            ("c", "r"): "a", ("d", "r"): "b",
            ("s", "r"): "s",
            ("u", "x"): "s",
            ("z", "x"): "s", ("z", "y"): "c", ("z", "w"): "d",
        },
        "z",
    )
    idx = game.pos_index
    arena = sg.game.Arena(game)
    assert arena.try_delete(idx["u"])
    assert arena.killed == [idx[p] for p in "uabcd"]
    assert arena.decremented == [idx["z"], idx["z"]]
    assert not any(arena.alive[v] for v in arena.killed)


def _check_fixpoint(game: sg.SafetyGame) -> None:
    """The game's fixpoint, and that of its pruned game when init wins,
    equal the reference solve's."""
    assert game.fixpoint == reference_fixpoint(game)
    if game.fixpoint.alive[game.init_index]:
        winning = sg.compute_winning_region(game)
        pruned, _ = pruned_context(game, sg.most_permissive(game, winning))
        assert pruned.fixpoint == reference_fixpoint(pruned)


@given(st.integers(0, 10**6), st.integers(1, 10), st.integers(1, 10), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_fixpoint_matches_the_reference_solve(seed, n0, n1, k):
    # Random draws hold player-0 dead ends, duplicate targets and losing
    # inits; the drain and the closure must leave the reference's alive
    # flags, counters and doomed flags, not only its region.
    _check_fixpoint(sg.gen_random(seed, n0, n1, k))


@pytest.mark.parametrize(
    "make",
    [lambda: sg.gen_chain(64), lambda: gap_game(40, 6)[0]]
    + [lambda i=i: sg.gen_adversarial(i) for i in range(1, 25)],
    ids=["chain64", "gap40"] + [f"adversarial{i}" for i in range(1, 25)],
)
def test_fixpoint_matches_the_reference_solve_on_families(make):
    _check_fixpoint(make())


def test_fixpoint_drains_through_delete_not_try_delete(monkeypatch):
    # The benchmark counts try_delete calls as the local search's work, so
    # solving the fixpoint makes none: each player-0 dead end is deleted
    # once, and the cascades kill more than the dead ends.
    game = sg.gen_random(6, 6, 6, 3)
    dead_ends = [v for v, o in enumerate(game.pos_owner) if o == 0 and not game.out_edges[v]]
    tried, deleted = [], []
    delete = sg.game.Arena._delete
    monkeypatch.setattr(sg.game.Arena, "try_delete", lambda arena, v: tried.append(v))
    monkeypatch.setattr(
        sg.game.Arena, "_delete", lambda arena, v: deleted.append(v) or delete(arena, v)
    )
    alive = game.fixpoint.alive
    assert (tried, deleted) == ([], dead_ends)
    assert alive.count(False) > len(dead_ends)
    assert alive[game.init_index]


def _arena_state(game: sg.SafetyGame):
    arena = sg.game.Arena(game)
    return arena.alive, arena.cnt, arena.doomed


@given(st.integers(0, 10**6), st.integers(2, 8), st.integers(1, 8), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_arena_starts_from_an_unchanged_fixpoint(seed, n0, n1, k):
    # Each arena copies the game's solved fixpoint: a fresh arena equals
    # one of an equal game never solved, after kept and failed deletions
    # (which flag doomed positions) in another arena and after a smart
    # call on the same game.
    game = sg.gen_random(seed, n0, n1, k)
    region = sg.compute_winning_region(game)
    arena = sg.game.Arena(game)
    for v in range(len(game.pos_names)):
        if game.pos_owner[v] == 0:
            arena.try_delete(v)
    if game.init in region:
        sg.smart_random_extract(game, region, seed)
    assert _arena_state(game) == _arena_state(sg.gen_random(seed, n0, n1, k))
    assert sg.compute_winning_region(game) == region


def test_solved_game_is_freed_by_reference_counting():
    # The solved fixpoint holds no arena, so nothing refers back to the
    # game and it dies on del with the cyclic collector off.
    # A validated strategy keeps its walk, which holds the game only by a
    # weak reference, so it dies with the game.
    game = sg.gen_random(63, 6, 6, 3)
    arena = sg.game.Arena(game)
    arena.try_delete(next(v for v, o in enumerate(game.pos_owner) if o == 0))
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    strat = sg.random_extract(game, mp, 0)
    assert sg.validate_strategy(game, mp, strat).winning
    assert sg.density(game, strat) == len(strat.choice)
    ref, strat_ref = weakref.ref(game), weakref.ref(strat)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del game, arena, mp, strat
        assert ref() is None
        assert strat_ref() is None
    finally:
        if enabled:
            gc.enable()


def _unit_closure(game: sg.SafetyGame) -> set[str]:
    """Reference forced closure, by name: the reach walk over the pruned
    game that moves a player-0 position only when its allowed targets
    are one distinct position."""
    winning = sg.compute_winning_region(game)
    pruned, mp = pruned_context(game, sg.most_permissive(game, winning))

    def unit(v, _):
        return mp.moves[v] if len({d for _, d in mp.moves[v]}) == 1 else ()

    order, _ = sg.game.reach(pruned, unit)
    return {pruned.pos_names[v] for v in order}


def _loses_init_when_killed(game: sg.SafetyGame, v: int) -> bool:
    """Naive check that init is lost once ``v`` is dead: a player-0 ``v``
    loses its edges, and a player-1 ``v`` becomes a player-0 dead end."""
    if game.pos_owner[v] == 0:
        return game.init_index not in naive_region_without(game, {v})
    name = game.pos_names[v]
    owners = {p: game.pos_owner[game.pos_index[p]] for p in game.pos_names}
    owners[name] = 0
    edges = {e: d for e, d in game.edges.items() if e[0] != name}
    return game.init not in naive_winning_region(sg.SafetyGame.build(owners, edges, game.init))


def _check_seeded_closure(game: sg.SafetyGame) -> None:
    arena = sg.game.Arena(game)
    flagged = [v for v, f in enumerate(arena.doomed) if f]
    if not arena.alive[game.init_index]:
        assert flagged == [game.init_index]
        return
    assert all(arena.alive[v] for v in flagged)
    for v in flagged:
        assert _loses_init_when_killed(game, v)
    assert {game.pos_names[v] for v in flagged} == _unit_closure(game)


@given(st.integers(0, 10**6), st.integers(2, 8), st.integers(1, 8), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_arena_flags_exactly_the_forced_closure(seed, n0, n1, k):
    # A fresh arena flags init and the forced closure, and nothing else:
    # every flag is sound (killing the position loses init) and the set
    # is the closure the exact engines fix.
    _check_seeded_closure(sg.gen_random(seed, n0, n1, k))


def test_arena_closure_follows_a_duplicate_target():
    # Init p2 takes two actions to p0; one distinct target forces p0.
    game = sg.gen_random(264, 6, 6, 3)
    idx = game.pos_index
    p2, p0 = idx["p2"], idx["p0"]
    assert game.init_index == p2
    assert [d for _, d in game.out_edges[p2]] == [p0, p0]
    assert sg.game.Arena(game).doomed[p0]
    _check_seeded_closure(game)


# ---------------------------------------------------------------------------
# most permissive strategy


def test_most_permissive_filters_losing_targets():
    game = sg.SafetyGame.build(
        {"v": 0, "w": 1, "l": 0},
        {("v", "x"): "w", ("v", "y"): "l", ("w", "z"): "w"},
        "v",
    )
    winning = sg.compute_winning_region(game)
    mp = sg.most_permissive(game, winning)
    v, w, x = game.pos_index["v"], game.pos_index["w"], game.act_index["x"]
    assert mp.moves[v] == ((x, w),)


def test_most_permissive_keeps_all_safe_actions():
    game = sg.SafetyGame.build(
        {"v": 0, "w": 1}, {("v", "x"): "w", ("v", "y"): "w", ("w", "z"): "w"}, "v"
    )
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    v, w = game.pos_index["v"], game.pos_index["w"]
    assert mp.moves[v] == ((game.act_index["x"], w), (game.act_index["y"], w))


def test_most_permissive_keys_are_the_winning_region():
    for game, winning, mp in solvable_random_games(120, 6, 6, 3):
        assert {game.pos_names[v] for v in mp.moves} == winning
        assert list(mp.moves) == sorted(mp.moves)
        for v, edges in mp.moves.items():
            if game.pos_owner[v] == 1:
                assert edges == game.out_edges[v]


def test_most_permissive_raises_on_losing_game():
    game = sg.SafetyGame.build({"v": 0}, {}, "v")
    with pytest.raises(InitLosingError):
        sg.most_permissive(game, sg.compute_winning_region(game))


# ---------------------------------------------------------------------------
# pruning


def _mp(game):
    return sg.most_permissive(game, sg.compute_winning_region(game))


def test_prune_drops_isolated_position():
    game = sg.SafetyGame.build(
        {"p": 1, "island": 1},
        {("p", "z"): "p", ("island", "z2"): "island"},
        "p",
    )
    pruned = pruned_context(game, _mp(game))[0]
    assert "island" not in pruned.pos_names
    assert pruned.init == "p"


def test_prune_is_idempotent():
    for seed in range(40):
        game = sg.gen_random(seed, 5, 5, 3)
        winning = sg.compute_winning_region(game)
        if game.init not in winning:
            continue
        pruned = pruned_context(game, _mp(game))[0]
        again = pruned_context(pruned, _mp(pruned))[0]
        assert again == pruned


_VIEWS = {"pos_index", "act_index", "in_sources"}


def test_pruned_games_build_no_views():
    # The LP frame and pruned_context read a pruned game's arrays and
    # fixpoint only, so its name lookups and in_sources stay unbuilt.
    for game in (sg.gen_adversarial(4), sg.gen_random(63, 6, 6, 3), gap_game(20, 4)[0]):
        mp = _mp(game)
        pruned, _ = pruned_context(game, mp)
        assert not _VIEWS & pruned.__dict__.keys()
        frame = sg.lp._Frame(game, mp)
        assert not _VIEWS & frame.pruned.__dict__.keys()
        assert frame.pruned == pruned
        assert pruned.pos_index == {p: i for i, p in enumerate(pruned.pos_names)}
        assert pruned.act_index == {a: i for i, a in enumerate(pruned.act_names)}
        assert pruned.in_sources == sg.SafetyGame.build(
            {p: pruned.pos_owner[i] for i, p in enumerate(pruned.pos_names)},
            pruned.edges, pruned.init,
        ).in_sources


def test_interned_games_keep_their_name_lookups():
    # Parsing hands the game the lookups interning built, before anything
    # reads them; equality, hashing and pickling see the arrays alone,
    # built views or not.
    parsed = sg.parse_game(sg.serialize_game(FIG_GAME))
    assert parsed.__dict__.keys() & _VIEWS == {"pos_index", "act_index"}
    assert parsed.pos_index == {p: i for i, p in enumerate(parsed.pos_names)}
    assert parsed.act_index == {a: i for i, a in enumerate(parsed.act_names)}
    bare = sg.SafetyGame(
        parsed.pos_names, parsed.pos_owner, parsed.act_names, parsed.act_owner,
        parsed.out_edges, parsed.init_index,
    )
    assert not _VIEWS & bare.__dict__.keys()
    assert bare == parsed and hash(bare) == hash(parsed) and bare == FIG_GAME
    for game in (parsed, bare, pickle.loads(pickle.dumps(bare))):
        again = pickle.loads(pickle.dumps(game))
        assert again == parsed and hash(again) == hash(parsed)
        assert again.in_sources == parsed.in_sources
        assert again.act_index == parsed.act_index


def test_prune_matches_name_filter():
    # Reference: a name-based walk and filter over all of game.edges,
    # intersected with the winning region.
    count = 0
    for seed in range(400):
        game = sg.gen_random(seed, 2 + seed % 9, 2 + seed % 7, 1 + seed % 3)
        winning = sg.compute_winning_region(game)
        if game.init not in winning:
            continue
        mp = sg.most_permissive(game, winning)
        allowed = allowed_names(game, mp)
        positions1 = game.positions1

        def takes(src, act):
            return src in positions1 or act in allowed.get(src, ())

        seen = {game.init}
        stack = [game.init]
        while stack:
            p = stack.pop()
            for (src, act), dst in game.edges.items():
                if src == p and takes(src, act) and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        keep = seen & winning
        expected = sg.SafetyGame.build(
            {p: game.pos_owner[game.pos_index[p]] for p in keep},
            {
                (src, act): dst
                for (src, act), dst in game.edges.items()
                if src in keep and dst in keep and takes(src, act)
            },
            game.init,
        )
        pruned = pruned_context(game, mp)[0]
        assert pruned == expected
        assert sg.serialize_game(pruned) == sg.serialize_game(expected)
        count += 1
    assert count >= 200


def test_pruned_game_is_entirely_winning():
    # pruned_context relies on this to skip a second fixpoint.
    for seed in range(200):
        game = sg.gen_random(seed, 2 + seed % 7, 2 + seed % 5, 1 + seed % 3)
        winning = sg.compute_winning_region(game)
        if game.init not in winning:
            continue
        pruned = pruned_context(game, _mp(game))[0]
        assert sg.compute_winning_region(pruned) == frozenset(pruned.pos_names)


def test_prune_preserves_minimum_density():
    count = 0
    for game, winning, mp in solvable_random_games(200, 5, 5, 2, max_bits=16):
        best_before, _ = sg.brute_force_min_density(game, mp)
        pruned = pruned_context(game, mp)[0]
        best_after, _ = sg.brute_force_min_density(pruned, _mp(pruned))
        assert best_before == best_after
        count += 1
    assert count == 200


# ---------------------------------------------------------------------------
# validation, density, bits


def test_validate_empty_strategy_on_player1_loop():
    game = sg.SafetyGame.build({"p": 1}, {("p", "z"): "p"}, "p")
    verdict = sg.validate_strategy(game, _mp(game), sg.PositionalStrategy({}))
    assert verdict.winning and verdict.witness is None


def test_validate_rejects_region_leaving_choice():
    game = sg.SafetyGame.build(
        {"v": 0, "w": 1, "trap": 0},
        {("v", "x"): "w", ("v", "y"): "trap", ("w", "z"): "w"},
        "v",
    )
    mp = _mp(game)
    verdict = sg.validate_strategy(game, mp, sg.PositionalStrategy({"v": "y"}))
    assert not verdict.winning
    assert verdict.witness.trace[-1] == "trap"
    assert verdict.witness.decisions[-1] == "y"


def test_validate_rejects_undefined_reachable_choice():
    game = sg.SafetyGame.build(
        {"v": 0, "w": 1}, {("v", "x"): "w", ("w", "z"): "v"}, "v"
    )
    verdict = sg.validate_strategy(game, _mp(game), sg.PositionalStrategy({}))
    assert not verdict.winning
    assert verdict.witness.trace == ("v",)


def test_specialization_soundness():
    for game, winning, mp in solvable_random_games(80, 6, 6, 3):
        choice = {
            game.pos_names[v]: min(game.act_names[a] for a, _ in edges)
            for v, edges in mp.moves.items()
            if game.pos_owner[v] == 0
        }
        verdict = sg.validate_strategy(game, mp, sg.PositionalStrategy(choice))
        assert verdict.winning


def test_density_counts_only_reachable():
    # v chain of 3 reachable player-0 positions plus unreachable extras
    positions = {"m": 1, "a": 0, "b": 0, "c": 0, "u1": 0, "u2": 0}
    edges = {
        ("m", "g"): "a",
        ("a", "s"): "b",
        ("b", "s"): "c",
        ("c", "s"): "m",
        ("u1", "s"): "m",
        ("u2", "s"): "m",
    }
    game = sg.SafetyGame.build(positions, edges, "m")
    strat = sg.PositionalStrategy(
        {"a": "s", "b": "s", "c": "s", "u1": "s", "u2": "s"}
    )
    assert sg.density(game, strat) == 3


def test_density_zero_without_reachable_player0():
    game = sg.SafetyGame.build({"p": 1, "q": 0}, {("p", "z"): "p", ("q", "s"): "p"}, "p")
    assert sg.density(game, sg.PositionalStrategy({})) == 0


def test_density_of_figure_game_strategy_is_two():
    strat = sg.PositionalStrategy({"g1": "z", "g3": "x"})
    assert sg.density(FIG_GAME, strat) == 2


def test_density_bounded_by_domain():
    for game, winning, mp in solvable_random_games(50, 5, 5, 3):
        strat = sg.random_extract(game, mp, 7)
        assert sg.density(game, strat) <= len(strat.choice)
        # extractors restrict to the reachable set, so equality holds
        assert sg.density(game, strat) == len(strat.choice)


def test_strategy_choice_is_a_read_only_copy():
    choice = {"g1": "z", "g3": "x"}
    strat = sg.PositionalStrategy(choice)
    with pytest.raises(TypeError):
        strat.choice["g1"] = "y"
    with pytest.raises(TypeError):
        del strat.choice["g3"]
    choice["g1"] = "y"
    choice["g2"] = "x"
    assert strat.choice == {"g1": "z", "g3": "x"}
    assert strat == sg.PositionalStrategy({"g3": "x", "g1": "z"})
    # The kept walk is not part of the strategy: a validated strategy
    # still equals, pickles and copies as its names alone.
    assert sg.validate_strategy(FIG_GAME, _mp(FIG_GAME), strat).winning
    assert pickle.loads(pickle.dumps(strat)) == strat
    assert copy.deepcopy(strat) == strat
    assert json.loads(json.dumps(dict(strat.choice))) == strat.choice


def test_kept_walks_and_draws_are_not_part_of_the_strategies():
    # random_extract leaves its walk, held with a weak reference to the
    # game, on the strategy and its draw bounds on the most-permissive
    # strategy; both still equal, pickle and copy as their fields alone.
    mp = _mp(FIG_GAME)
    strat = sg.random_extract(FIG_GAME, mp, 1)
    for kept in (strat, mp):
        assert pickle.loads(pickle.dumps(kept)) == kept
        assert copy.deepcopy(kept) == kept


def test_an_index_form_strategy_behaves_as_its_names():
    # An extractor's strategy keeps its game's moves and names ``choice``
    # only on first read.  Read fresh each time, it compares, prints,
    # pickles, copies and refuses writes and hashing as the strategy
    # built from its names does.
    game = sg.gen_adversarial(4)
    mp = _mp(game)
    for make in (
        lambda: sg.random_extract(game, mp, 1),
        lambda: sg.smart_random_extract(game, mp.winning, 1),
    ):
        named = sg.PositionalStrategy(dict(make().choice))
        assert len(named.choice) > 5
        assert make() == named and named == make()
        text = f"PositionalStrategy(choice=mappingproxy({dict(named.choice)!r}))"
        assert repr(make()) == repr(named) == text
        assert pickle.loads(pickle.dumps(make())) == named
        assert copy.deepcopy(make()) == named
        assert list(make().choice) == sorted(named.choice)
        for strat in (make(), named):
            with pytest.raises(TypeError):
                strat.choice[next(iter(named.choice))] = "bogus"
            with pytest.raises(TypeError):
                hash(strat)
        assert dict(make().choice) == dict(named.choice)


def test_strategy_walk_is_kept_per_game():
    # A strategy decoded on the pruned game, and a copy missing one choice,
    # are read against the full game, the pruned game and the full game
    # again.  Each answer is the one a fresh strategy with the same names
    # gives, so the walk kept on the strategy follows the game asked.
    renumbered = 0
    for game, _, mp in solvable_random_games(30, 6, 6, 3):
        pruned, pruned_mp = pruned_context(game, mp)
        renumbered += pruned.pos_names != game.pos_names
        decoded = sg.ilp_exact_extract(game, mp).strategy
        first = min(decoded.choice, default=None)
        cut = sg.PositionalStrategy({p: a for p, a in decoded.choice.items() if p != first})
        for strat in (decoded, cut):
            for g, m in ((game, mp), (pruned, pruned_mp), (game, mp)):
                fresh = sg.PositionalStrategy(strat.choice)
                assert sg.validate_strategy(g, m, strat) == sg.validate_strategy(g, m, fresh)
                assert sg.density(g, strat) == sg.density(g, fresh)
                assert sg.restrict_to_reachable(g, strat) == sg.restrict_to_reachable(g, fresh)
    assert renumbered > 20


def test_search_space_bits():
    # a is index 0 with four allowed edges, b is index 1 with two.
    mp = sg.MostPermissiveStrategy(
        winning=frozenset({"a", "b"}),
        moves={0: tuple((act, 1) for act in range(4)), 1: ((0, 0), (1, 0))},
    )
    game = sg.SafetyGame.build({"a": 0, "b": 0}, {}, "a")  # structure unused
    assert sg.search_space_bits(game, mp) == pytest.approx(3.0)


def test_search_space_bits_zero_when_singletons():
    mp = sg.MostPermissiveStrategy(winning=frozenset({"a"}), moves={0: ((0, 0),)})
    game = sg.SafetyGame.build({"a": 0}, {}, "a")
    assert sg.search_space_bits(game, mp) == 0.0


def test_strategy_serialization_sorted():
    strat = sg.PositionalStrategy({"b": "x", "a": "y"})
    assert sg.serialize_strategy(strat) == b"choice a y\nchoice b x\n"


def _successors(game, p):
    """Distinct successor names of position ``p``, sorted."""
    names = game.pos_names
    return tuple(sorted({names[d] for _, d in game.out_edges[game.pos_index[p]]}))


def test_successors_helper():
    game = sg.SafetyGame.build(
        {"v": 0, "a": 1, "b": 1},
        {("v", "x"): "a", ("v", "y"): "b", ("v", "z"): "a", ("a", "u"): "a", ("b", "u"): "b"},
        "v",
    )
    assert _successors(game, "v") == ("a", "b")
    assert _successors(game, "a") == ("a",)


def test_witness_shape_invariant():
    # a witness ending at an undefined choice has one fewer decision than
    # positions; a region-leaving witness ends with the offending step
    game = sg.SafetyGame.build(
        {"v": 0, "w": 1, "trap": 0},
        {("v", "x"): "w", ("v", "y"): "trap", ("w", "z"): "w"},
        "v",
    )
    mp = _mp(game)
    leaving = sg.validate_strategy(game, mp, sg.PositionalStrategy({"v": "y"}))
    assert len(leaving.witness.decisions) == len(leaving.witness.trace) - 1
    undefined = sg.validate_strategy(game, mp, sg.PositionalStrategy({}))
    assert len(undefined.witness.decisions) == len(undefined.witness.trace) - 1


def test_witness_is_a_shortest_violating_play():
    # Following {a: x}, init r reaches a and b in one step.  b is undefined,
    # so the shortest violating play is r -g2-> b, though a, whose choice
    # leads to the losing dead end d, comes first in the visit order.
    game = sg.SafetyGame.build(
        {"r": 1, "a": 0, "b": 0, "c": 1, "d": 0},
        {
            ("r", "g1"): "a", ("r", "g2"): "b", ("a", "x"): "d", ("a", "y"): "c",
            ("b", "y"): "c", ("c", "z"): "c",
        },
        "r",
    )
    verdict = sg.validate_strategy(game, _mp(game), sg.PositionalStrategy({"a": "x"}))
    assert not verdict.winning
    assert verdict.witness == sg.PlayWitness(("r", "b"), ("g2",))


def _naive_successors(game, strat, p):
    """Positions one step from ``p`` in a play under ``strat``."""
    if p in game.positions1:
        return _successors(game, p)
    dst = game.edges.get((p, strat.choice.get(p)))
    return () if dst is None else (dst,)


def _naive_reach(game, strat):
    """Set-closure fixpoint of the positions a play under ``strat`` visits."""
    seen = {game.init}
    changed = True
    while changed:
        changed = False
        for p in sorted(seen):
            for q in _naive_successors(game, strat, p):
                if q not in seen:
                    seen.add(q)
                    changed = True
    return seen


def _naive_depths(game, strat):
    """Fewest steps a play under ``strat`` takes to each position it visits,
    layer by layer."""
    depth = {game.init: 0}
    layer, steps = {game.init}, 0
    while layer:
        steps += 1
        layer = {q for p in layer for q in _naive_successors(game, strat, p)} - depth.keys()
        depth.update(dict.fromkeys(layer, steps))
    return depth


@given(
    st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6), st.integers(1, 3),
    st.integers(0, 10**6),
)
@settings(max_examples=150, deadline=None)
def test_reach_kernel_matches_naive_closure(seed, n0, n1, k, strat_seed):
    game = sg.gen_random(seed, n0, n1, k)
    rng = sg.SplitMix64(strat_seed)
    # The verdict's definition holds for any claimed region, not only for
    # the true winning one, so half the cases draw an arbitrary region.
    winning = sg.compute_winning_region(game)
    if rng.below(2):
        winning = frozenset(p for p in game.pos_names if rng.below(4))
    mp = unchecked_most_permissive(game, winning)
    choice = {}
    for p in sorted(game.positions0):
        acts = [a for (src, a) in game.edges if src == p] + ["bogus"]
        if rng.below(4):
            choice[p] = sorted(acts)[rng.below(len(acts))]
    strat = sg.PositionalStrategy(choice)

    seen = _naive_reach(game, strat)
    order, _ = sg.game.reach(game, sg.game.strategy_moves(game, strat).get)
    assert {game.pos_names[v] for v in order} == seen
    assert sg.restrict_to_reachable(game, strat).choice == {
        p: a for p, a in choice.items() if p in seen
    }
    assert sg.density(game, strat) == len(seen & game.positions0)
    defined = all(
        (p, choice.get(p)) in game.edges for p in seen & game.positions0
    )
    verdict = sg.validate_strategy(game, mp, strat)
    assert verdict.winning == (seen <= winning and defined)
    if not verdict.winning:
        trace, decisions = verdict.witness.trace, verdict.witness.decisions
        assert trace[0] == game.init
        for src, act, dst in zip(trace, decisions, trace[1:]):
            assert game.edges[(src, act)] == dst
            assert src in winning
            if src in game.positions0:
                assert choice[src] == act
        last = trace[-1]
        assert last not in winning or (
            last in game.positions0 and (last, choice.get(last)) not in game.edges
        )
        # the witness is a shortest violating play
        violating = [
            depth for p, depth in _naive_depths(game, strat).items()
            if p not in winning or p in game.positions0 and (p, choice.get(p)) not in game.edges
        ]
        assert len(trace) - 1 == min(violating)


def _setcover_corpus():
    """The games of the benchmark's set-cover workload at seed 1."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus
    spec.loader.exec_module(corpus)
    return [sg.parse_game(inst.text) for inst in corpus.build("setcover", 1).instances]


class _AskedFlags:
    """Flags that record every index they are read at."""

    def __init__(self, flags):
        self.flags = flags
        self.asked = []

    def __getitem__(self, i):
        self.asked.append(i)
        return self.flags[i]


def test_decode_support_reads_flags_only_at_successors_of_reached_positions():
    games = [game for game, _, _ in solvable_random_games(40, 6, 6, 3)]
    for game in games + _setcover_corpus():
        mp = sg.most_permissive(game, sg.compute_winning_region(game))
        pruned, mp2 = pruned_context(game, mp)
        cnf, _ = full_cnf(pruned, mp2)
        # Every pruned position is winning, so variable v + 1 is position v.
        flags = list(sg.sat_solve(cnf).model)
        strat = sg.game.decode_support(pruned, flags)
        assert sg.game.decode_support(pruned, tuple(flags)) == strat
        assert sg.game.decode_support(pruned, np.array(flags)) == strat
        asked = _AskedFlags(flags)
        assert sg.game.decode_support(pruned, asked) == strat

        order, _ = sg.game.reach(pruned, sg.game.strategy_moves(pruned, strat).get)
        owner, out = pruned.pos_owner, pruned.out_edges
        assert {pruned.pos_names[v] for v in order if owner[v] == 0} == set(strat.choice)
        targets = {d for v in order if owner[v] == 0 for _, d in out[v]}
        assert set(asked.asked) <= targets
        assert sg.validate_strategy(game, mp, strat).winning
        assert sg.density(game, strat) == len(strat.choice)
