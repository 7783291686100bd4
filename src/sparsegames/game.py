"""Safety-game model, text format, solving, and strategy metrics.

A safety game is played on a finite graph whose positions are split
between player 0 and player 1.  Each player moves via her own action
alphabet along a partial edge function.  A finite play ending in a
player-0 position is lost by player 0; every infinite play and every
finite play ending in a player-1 position is won by player 0.

Position and action identifiers are free-form tokens.  Parsing and
building intern them into dense integer indices in lexicographic order,
so index order never depends on declaration order and all engines work
on flat arrays; names are kept only for input and output.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from .errors import GameFormatError, InitLosingError


@dataclass
class SafetyGame:
    """Immutable two-player safety game over explicit positions.

    The index arrays are the game: ``pos_owner`` and ``act_owner`` give
    each position's and action's player, ``out_edges[v]`` lists the
    (action, target) index pairs of position ``v`` sorted, and
    ``init_index`` is the initial position.  ``pos_names`` and
    ``act_names`` are sorted, so index order is name order.  Names,
    ``edges`` and ``positions0/1`` are views for the I/O edges.

    Construct via :func:`parse_game` or :meth:`SafetyGame.build`, the
    validating entry points; the constructor trusts its arrays and
    derives only ``init``, and ``pos_index``, ``act_index``,
    ``in_sources`` and ``fixpoint`` are built on first use.  Games with
    equal arrays are equal.
    """

    pos_names: tuple[str, ...]
    pos_owner: tuple[int, ...]
    act_names: tuple[str, ...]
    act_owner: tuple[int, ...]
    out_edges: tuple[tuple[tuple[int, int], ...], ...]
    init_index: int

    def __post_init__(self):
        self.init = self.pos_names[self.init_index]

    pos_index = functools.cached_property(lambda self: {p: i for i, p in enumerate(self.pos_names)})
    act_index = functools.cached_property(lambda self: {a: i for i, a in enumerate(self.act_names)})

    @functools.cached_property
    def in_sources(self) -> tuple[tuple[int, ...], ...]:
        """Per position, the source of each incoming edge, with multiplicity."""
        incoming: list[list[int]] = [[] for _ in self.pos_names]
        for s, edges in enumerate(self.out_edges):
            for _, d in edges:
                incoming[d].append(s)
        return tuple(map(tuple, incoming))

    @functools.cached_property
    def fixpoint(self) -> "Fixpoint":
        """The initial fixpoint that every :class:`Arena` of this game
        starts from, solved on first use and kept."""
        return _solve(self)

    @functools.cached_property
    def candidates(self) -> tuple[int, ...]:
        """The player-0 positions of :attr:`fixpoint`'s winning region in
        index order, which every seed of the local search permutes; listed
        on first use and kept."""
        owner = self.pos_owner
        return tuple([v for v, a in enumerate(self.fixpoint.alive) if a and not owner[v]])

    @functools.cached_property
    def same_player_edge(self) -> tuple[int, int] | None:
        """The first edge, as (source, target) indices in ``out_edges``
        order, whose ends belong to the same player, or None when play
        strictly alternates; found on first use and kept."""
        owner = self.pos_owner
        for v, edges in enumerate(self.out_edges):
            for _, d in edges:
                if owner[v] == owner[d]:
                    return v, d
        return None

    @classmethod
    def build(
        cls,
        positions: dict[str, int],
        edges: dict[tuple[str, str], str],
        init: str,
    ) -> "SafetyGame":
        """Build a game from owner and edge maps, validating invariants.
        An owner must read ``0`` or ``1`` as text, as ``parse_game`` needs
        (``True`` and ``1.0`` do not), and is stored as an int."""
        for p, o in positions.items():
            _check_name(p)
            if str(o) not in ("0", "1"):
                raise GameFormatError(f"position {p!r} has owner {o!r}, expected 0 or 1")
        positions = {p: int(o) for p, o in positions.items()}
        if init not in positions:
            raise GameFormatError(f"initial position {init!r} is not declared")
        act_owner: dict[str, int] = {}
        for (src, act), dst in edges.items():
            _check_edge(positions, act_owner, src, act, dst)
        for act in act_owner:
            _check_name(act)
        return _intern(positions, act_owner, edges, init)

    @property
    def edges(self) -> dict[tuple[str, str], str]:
        """Name view of ``out_edges``: (source, action) -> target."""
        names, acts = self.pos_names, self.act_names
        return {
            (names[v], acts[a]): names[d]
            for v, out in enumerate(self.out_edges)
            for a, d in out
        }

    @property
    def positions0(self) -> frozenset[str]:
        return frozenset(p for p, o in zip(self.pos_names, self.pos_owner) if o == 0)

    @property
    def positions1(self) -> frozenset[str]:
        return frozenset(p for p, o in zip(self.pos_names, self.pos_owner) if o == 1)

    def __hash__(self) -> int:
        return hash((self.pos_names, self.pos_owner, self.init_index))

    def __repr__(self) -> str:
        return (
            f"SafetyGame(|V0|={self.pos_owner.count(0)}, |V1|={self.pos_owner.count(1)}, "
            f"edges={sum(map(len, self.out_edges))}, init={self.init!r})"
        )


#: Position index -> the (action, target) index pairs it takes.
Moves = dict[int, tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class MostPermissiveStrategy:
    """Winning region plus, per winning player-0 position, every action
    that keeps the play inside the winning region.

    ``moves`` is in index form and keys every winning position, in index
    order, so its keys are the winning region.  A player-0 position maps
    to its allowed (action, target) index edges and a player-1 position to
    all of its ``out_edges``, both in ``out_edges`` order.  ``winning``
    holds the same region as position names, for the I/O edges.

    ``random_extract`` keeps its seed-independent set-up here on first
    use: each player-0 entry's place among the bounds of its draws, and
    those bounds, the entries' move counts.  Like any kept value, it
    assumes ``moves`` is not changed after.
    """

    winning: frozenset[str]
    moves: Moves

    def __post_init__(self):
        object.__setattr__(self, "_draws", None)


@dataclass(frozen=True)
class PositionalStrategy:
    """Partial map from player-0 positions to the single action taken
    there.  Extractors restrict the domain to the positions reachable
    when the strategy is followed.

    ``choice`` is a read-only copy of the mapping given: writing to it
    raises ``TypeError``.  Pass ``dict(strat.choice)`` where a dict is
    needed, as to ``json.dumps``.  A strategy built from names converts
    them once per game it is read against (:func:`_strategy_walk`).  One
    that ``random_extract`` or :func:`decode_support` returns is in index
    form (:meth:`_from_walk`) and names its moves as ``choice`` on first
    read.  Both compare, print, pickle and copy as ``choice`` alone.
    """

    choice: Mapping[str, str]
    _own = _walk = None  # the index form's source; the names' conversion

    def __post_init__(self):
        object.__setattr__(self, "choice", MappingProxyType(dict(self.choice)))

    @classmethod
    def _from_walk(cls, game: SafetyGame, moves: Moves, order: list[int]) -> "PositionalStrategy":
        """The index form of the player-0 ``moves`` of a :func:`reach` walk
        of ``game`` in visit ``order``, one edge at each visited player-0
        position, kept with the game's names and a weak reference to it."""
        strat = object.__new__(cls)
        own = (weakref.ref(game), moves, order, game.pos_names, game.act_names)
        object.__setattr__(strat, "_own", own)
        return strat

    def __getattr__(self, name: str):
        # Only an index-form strategy lacks ``choice`` until first read.
        if name != "choice":
            raise AttributeError(name)
        _, moves, _, names, acts = self._own
        choice = MappingProxyType({names[v]: acts[moves[v][0][0]] for v in sorted(moves)})
        object.__setattr__(self, "choice", choice)
        return choice

    def __reduce__(self):
        # Pickle and deep-copy the names only; a copy converts them on use.
        return PositionalStrategy, (dict(self.choice),)


@dataclass(frozen=True)
class PlayWitness:
    """A finite play (position trace plus decision sequence) exhibiting a
    violation found by :func:`validate_strategy`."""

    trace: tuple[str, ...]
    decisions: tuple[str, ...]


@dataclass(frozen=True)
class ValidationVerdict:
    winning: bool
    witness: PlayWitness | None = None


# ---------------------------------------------------------------------------
# Text format


def parse_game(text: bytes | str) -> SafetyGame:
    """Parse the one-record-per-line game format.

    Records: ``pos <id> <owner>``, ``init <id>`` (exactly once, after the
    position's declaration), ``edge <src> <action> <dst>``.  ``#`` starts
    a comment; blank lines are ignored.  Action alphabets are inferred
    from the owner of the source position of each edge.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GameFormatError(f"input is not valid UTF-8: {exc}") from exc
    owners: dict[str, int] = {}
    edges: dict[tuple[str, str], str] = {}
    act_owner: dict[str, int] = {}
    init: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "pos":
            if len(parts) != 3:
                raise GameFormatError("expected 'pos <id> <owner>'", lineno)
            name, owner_tok = parts[1], parts[2]
            if owner_tok not in ("0", "1"):
                raise GameFormatError(f"owner must be 0 or 1, got {owner_tok!r}", lineno)
            if name in owners:
                raise GameFormatError(f"duplicate position {name!r}", lineno)
            owners[name] = int(owner_tok)
        elif kind == "init":
            if len(parts) != 2:
                raise GameFormatError("expected 'init <id>'", lineno)
            if init is not None:
                raise GameFormatError("init is declared more than once", lineno)
            if parts[1] not in owners:
                raise GameFormatError(
                    f"init names undeclared position {parts[1]!r}", lineno
                )
            init = parts[1]
        elif kind == "edge":
            if len(parts) != 4:
                raise GameFormatError("expected 'edge <src> <action> <dst>'", lineno)
            src, act, dst = parts[1], parts[2], parts[3]
            _check_edge(owners, act_owner, src, act, dst, lineno)
            if (src, act) in edges:
                raise GameFormatError(
                    f"duplicate edge for ({src!r}, {act!r})", lineno
                )
            edges[(src, act)] = dst
        else:
            raise GameFormatError(f"unknown record {kind!r}", lineno)
    if init is None:
        raise GameFormatError("missing init record")
    return _intern(owners, act_owner, edges, init)


def _check_edge(owners, act_owner, src, act, dst, line=None) -> None:
    """Reject an edge with an undeclared end or an action that both
    players use, and record the action's owner in ``act_owner``."""
    if src not in owners or dst not in owners:
        end, p = ("target", dst) if src in owners else ("source", src)
        raise GameFormatError(f"edge {end} {p!r} is undeclared", line)
    if act_owner.setdefault(act, owners[src]) != owners[src]:
        raise GameFormatError(f"action {act!r} is used by both players", line)


def _check_name(name: str) -> None:
    """Reject a position or action name that the text format cannot hold
    as one token: an empty name, or one with whitespace or ``#``."""
    if "#" in name or name.split() != [name]:
        raise GameFormatError(f"name {name!r} is empty or holds whitespace or '#'")


def _intern(owners, act_owner, edges, init) -> SafetyGame:
    """Index arrays of validated owner and edge maps, with positions and
    actions numbered in sorted-name order."""
    pos_names = tuple(sorted(owners))
    act_names = tuple(sorted(act_owner))
    pos_index = {p: i for i, p in enumerate(pos_names)}
    act_index = {a: i for i, a in enumerate(act_names)}
    out: list[list[tuple[int, int]]] = [[] for _ in pos_names]
    for (src, act), dst in edges.items():
        out[pos_index[src]].append((act_index[act], pos_index[dst]))
    game = SafetyGame(
        pos_names, tuple([owners[p] for p in pos_names]),
        act_names, tuple([act_owner[a] for a in act_names]),
        tuple([tuple(sorted(lst)) for lst in out]), pos_index[init],
    )
    game.pos_index, game.act_index = pos_index, act_index
    return game


def serialize_game(game: SafetyGame) -> bytes:
    """Render a game to the text format, deterministically.

    Position lines come first sorted by id, then the init line, then edge
    lines sorted lexicographically.  ``parse_game`` of the output is
    structurally equal to the input.
    """
    names, acts = game.pos_names, game.act_names
    lines = [f"pos {p} {o}" for p, o in zip(names, game.pos_owner)] + [f"init {game.init}"]
    lines += sorted(
        f"edge {names[v]} {acts[a]} {names[d]}"
        for v, out in enumerate(game.out_edges) for a, d in out
    )
    return ("\n".join(lines) + "\n").encode("utf-8")


def serialize_strategy(strat: PositionalStrategy) -> bytes:
    """Render ``choice <pos> <action>`` lines sorted by position id, an
    index-form strategy's straight from its moves in index order."""
    if strat._own is None:
        lines = [f"choice {p} {a}" for p, a in sorted(strat.choice.items())]
    else:
        _, moves, _, names, acts = strat._own
        lines = [f"choice {names[v]} {acts[moves[v][0][0]]}" for v in sorted(moves)]
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


# ---------------------------------------------------------------------------
# Solving


class Fixpoint(NamedTuple):
    """The initial state of every :class:`Arena` of a game, as tuples:
    the winning region as ``alive`` flags, the live-successor counters
    ``cnt`` and the forced closure as ``doomed`` flags."""

    alive: tuple[bool, ...]
    cnt: tuple[int, ...]
    doomed: tuple[bool, ...]


def _solve(game: SafetyGame) -> Fixpoint:
    """Drain the player-0 dead ends through the one cascade,
    :meth:`Arena._delete`, from an arena in the unsolved state, then flag
    the forced closure of a winning init through the one walk,
    :func:`reach`: init, every successor of a player-1 member and the one
    distinct live target of a player-0 member."""
    owner, out = game.pos_owner, game.out_edges
    n = len(owner)
    alive, cnt, doomed = [True] * n, [len(edges) for edges in out], [False] * n
    dead_ends = [v for v in range(n) if not owner[v] and not out[v]]
    # Nothing is doomed yet, so no deletion stops early, and a dead end
    # has no edges, so no cascade kills it before its own turn.  Without
    # dead ends no arena is made, so ``in_sources`` is not built.
    if dead_ends:
        arena = Arena(game, (alive, cnt, doomed))
        for v in dead_ends:
            arena._delete(v)

    def unit(v: int, _) -> tuple[tuple[int, int], ...]:
        first = None
        for edge in out[v]:
            if alive[edge[1]]:
                if first is None:
                    first = edge
                elif edge[1] != first[1]:
                    return ()
        return (first,)

    init = game.init_index
    for v in reach(game, unit)[0] if alive[init] else [init]:
        doomed[v] = True
    return Fixpoint(tuple(alive), tuple(cnt), tuple(doomed))


class Arena:
    """Mutable fixpoint state over a game, with tentative edge deletion.

    ``alive`` tracks the current winning region.  For each live player-0
    position, ``cnt`` holds the number of outgoing edges whose target is
    live; the position dies when the counter hits zero.  A live player-1
    position dies as soon as any successor dies.  Player-1 dead ends are
    winning for player 0 and are never removed.

    A game solves its initial fixpoint once, on first use, and keeps it as
    the tuples of :attr:`SafetyGame.fixpoint`; each arena starts from its
    own list copies of them.  The solve itself runs on an arena in the
    unsolved state (every position alive, each counter at the position's
    edge count, nothing doomed): its dead ends drain through ``_delete``
    and its closure is a :func:`reach` walk.  The memo refers neither to an
    arena nor back to the game, so a game is freed by reference counting
    alone.

    ``try_delete``, the one cascade, removes all outgoing edges of a
    player-0 position, propagates along ``in_sources``, records the kills
    and decrements in the reused lists ``killed`` and ``decremented``, and
    undoes them unless the initial position survives.  Deleting edges
    never enlarges the winning region, so cascading from the current region
    is equivalent to recomputing the fixpoint on the mutated game.  The
    benchmark counts calls by that name; the fixpoint drain uses ``_delete``.

    ``doomed`` flags positions whose death is known to lose init.  The
    initial fixpoint flags the forced closure of a winning init, the
    positions every winning support contains: init, every successor of a
    player-1 member, and the one distinct live target of a player-0 member
    whose live targets are one position.  A region of a later state that
    holds init is closed the same way and lies inside the initial region,
    so it holds the whole closure.  Each ``v`` whose ``try_delete`` fails
    is flagged too, in this arena only.  The flags stay valid because an
    arena only loses player-0 edges and regains exactly what it rolls
    back, so every later state has a subset of the edges of the state that
    set the flag, and edge deletions only shrink the winning region.  If
    ``v`` dies in a later state, dropping its edges there changes nothing,
    and the result is a subgame of the one that already lost init.  A
    tentative cascade therefore stops as soon as it kills a doomed
    position, after recording that kill and every decrement, so the
    rollback restores ``alive`` and ``cnt`` exactly.

    ``copy`` duplicates ``alive``, ``cnt`` and ``doomed``.  The flags stay
    valid in the copy by the same argument: it starts from the edges of
    the state it was copied from and only ever loses more of them.

    ``tests/test_game.py`` checks the verdicts against deleting the edges
    and re-solving with a naive rescan
    (``test_arena_deletions_match_naive_rescan``), checks the rollback
    after an early stop at a doomed position
    (``test_arena_rollback_after_doomed_stop_restores_state``), and checks
    that a fresh arena flags exactly the forced closure, each flag sound
    (``test_arena_flags_exactly_the_forced_closure``).
    """

    def __init__(self, game: SafetyGame, state: tuple[list, list, list] | None = None):
        """An arena over ``game`` in ``state`` taken as is, or in copies of its fixpoint."""
        self.game, self.killed, self.decremented = game, [], []
        self.owner, self.in_sources = game.pos_owner, game.in_sources
        self.alive, self.cnt, self.doomed = state or map(list, game.fixpoint)

    def try_delete(self, v: int) -> bool:
        """Tentatively delete all outgoing edges of player-0 position ``v``.

        Returns True (and keeps the deletion) when the initial position is
        still winning afterwards; returns False, flags ``v`` doomed and
        restores the previous state otherwise.  Deleting an already-dead
        position is a no-op that trivially succeeds.
        """
        alive = self.alive
        if not alive[v]:
            return True
        cnt, doomed, owner = self.cnt, self.doomed, self.owner
        killed, decremented, in_sources = self.killed, self.decremented, self.in_sources
        killed.clear()
        decremented.clear()
        killed.append(v)
        if doomed[v]:
            return False
        alive[v] = False
        for t in killed:
            for s in in_sources[t]:
                if not alive[s]:
                    continue
                if not owner[s]:
                    cnt[s] -= 1
                    decremented.append(s)
                    if cnt[s]:
                        continue
                alive[s] = False
                killed.append(s)
                if doomed[s]:
                    doomed[v] = True
                    for u in decremented:
                        cnt[u] += 1
                    for u in killed:
                        alive[u] = True
                    return False
        return True

    _delete = try_delete

    def copy(self) -> "Arena":
        return Arena(self.game, (self.alive[:], self.cnt[:], self.doomed[:]))


def compute_winning_region(game: SafetyGame) -> frozenset[str]:
    """Greatest set of positions from which player 0 keeps the play safe.

    Reads the game's initial fixpoint, solved once by a worklist with
    per-position counters of live successors, O(|E|) total work.  The
    empty set is a valid result.
    """
    return frozenset([p for p, a in zip(game.pos_names, game.fixpoint.alive) if a])


def most_permissive(game: SafetyGame, winning: frozenset[str]) -> MostPermissiveStrategy:
    """All actions per winning player-0 position whose target stays in
    ``winning``, and every edge of each winning player-1 position.
    Raises :class:`InitLosingError` when the initial position is losing,
    since extraction is then meaningless.
    """
    if game.init not in winning:
        raise InitLosingError(
            f"initial position {game.init!r} is not in the winning region"
        )
    win = [p in winning for p in game.pos_names]
    owner, out = game.pos_owner, game.out_edges
    moves: Moves = {
        v: out[v] if owner[v] else tuple([e for e in out[v] if win[e[1]]])
        for v in range(len(win))
        if win[v]
    }
    return MostPermissiveStrategy(winning=frozenset(winning), moves=moves)


def reach(game: SafetyGame, moves: Callable) -> tuple[list[int], list[int]]:
    """Breadth-first exploration from init.

    A player-1 position takes every edge in ``out_edges``; a player-0
    position ``v`` takes the (action, target) index pairs that
    ``moves(v, ())`` returns, called once per visit, so a ``Moves`` dict
    is passed as its ``.get``.  Returns the visit order and ``parent``, a
    list over all positions that holds the position that discovered each
    visited one, init for init itself, and -1 for an unvisited one.
    """
    owner = game.pos_owner
    out = game.out_edges
    init = game.init_index
    parent = [-1] * len(owner)
    parent[init] = init
    order = [init]
    for v in order:
        for _, d in out[v] if owner[v] else moves(v, ()):
            if parent[d] < 0:
                parent[d] = v
                order.append(d)
    return order, parent


def pruned_context(
    game: SafetyGame, mp: MostPermissiveStrategy
) -> tuple[SafetyGame, MostPermissiveStrategy]:
    """Restrict the game to positions reachable from init when player 0
    ranges over the most-permissive actions and player 1 moves freely,
    which is where every engine encodes.  A winning player-1 position has
    only winning successors and every allowed target is winning, so the
    pruned game is all winning and is its own most-permissive strategy,
    returned beside it.  Kept positions and actions are renumbered by
    rank, as interning their names afresh would.  Idempotent."""
    order, _ = reach(game, mp.moves.get)
    kept = sorted(order)
    rank = [0] * len(game.pos_owner)
    for i, v in enumerate(kept):
        rank[v] = i
    used = sorted({a for v in kept for a, _ in mp.moves[v]})
    act_rank = {a: i for i, a in enumerate(used)}
    out = tuple([tuple([(act_rank[a], rank[d]) for a, d in mp.moves[v]]) for v in kept])
    pruned = SafetyGame(
        tuple([game.pos_names[v] for v in kept]), tuple([game.pos_owner[v] for v in kept]),
        tuple([game.act_names[a] for a in used]), tuple([game.act_owner[a] for a in used]),
        out, rank[game.init_index],
    )
    return pruned, MostPermissiveStrategy(frozenset(pruned.pos_names), dict(enumerate(out)))


def strategy_moves(game: SafetyGame, strat: PositionalStrategy) -> Moves:
    """Index edges of ``strat`` for :func:`reach`.  A choice that names no
    edge of ``game`` is dropped, so its position behaves as undefined."""
    pos_index, act_index, out = game.pos_index, game.act_index, game.out_edges
    moves: Moves = {}
    for p, act in strat.choice.items():
        v = pos_index.get(p)
        if v is not None:
            a = act_index.get(act)
            for edge in out[v]:
                if edge[0] == a:
                    moves[v] = (edge,)
                    break
    return moves


def _strategy_walk(game: SafetyGame, strat: PositionalStrategy) -> tuple[Moves, list[int]]:
    """The index edges of ``strat`` in ``game`` and their :func:`reach`
    visit order, which every reader of a strategy reads.  An index-form
    strategy on its own game gives its own moves and walk.  Otherwise the
    first reader converts ``strat.choice`` (:func:`strategy_moves`) and
    walks; this stays on the strategy for this game only, held by a weak
    reference, so another game converts afresh."""
    memo = strat._own
    if memo is None or memo[0]() is not game:
        memo = strat._walk
        if memo is None or memo[0]() is not game:
            moves = strategy_moves(game, strat)
            memo = (weakref.ref(game), moves, reach(game, moves.get)[0])
            object.__setattr__(strat, "_walk", memo)
    return memo[1], memo[2]


def validate_strategy(
    game: SafetyGame,
    mp: MostPermissiveStrategy,
    strat: PositionalStrategy,
) -> ValidationVerdict:
    """Check that following ``strat`` from init never leaves the winning
    region and never reaches an undefined player-0 choice (as at a dead end).

    One pass over the strategy's walk for ``game`` (:func:`_strategy_walk`),
    on the moves ``serialize_strategy`` names, gives the verdict: every
    visited position but init is the target of an edge the play can take,
    so a violation is a visited position outside the region or a visited
    player-0 position without a move.  The walk is breadth-first, so the
    path that discovered the first violation in its order is a shortest
    violating play; only a failing check walks again, for the parents
    that trace it into the verdict's witness.
    """
    moves, order = _strategy_walk(game, strat)
    owner, region = game.pos_owner, mp.moves  # its keys are the winning region
    for v in order:
        if v not in region or not owner[v] and v not in moves:
            break
    else:
        return ValidationVerdict(True, None)
    # Each step replays the first edge of the parent that reaches the
    # child, which is the edge that discovered it.
    _, parent = reach(game, moves.get)
    out, init = game.out_edges, game.init_index
    trace = [v]
    decisions: list[int] = []
    while v != init:
        u = parent[v]
        decisions.append(next(a for a, d in (out[u] if owner[u] else moves[u]) if d == v))
        trace.append(u)
        v = u
    witness = PlayWitness(
        tuple([game.pos_names[t] for t in reversed(trace)]),
        tuple([game.act_names[a] for a in reversed(decisions)]),
    )
    return ValidationVerdict(False, witness)


def decode_support(game: SafetyGame, flags: Sequence) -> PositionalStrategy:
    """Read a strategy off a support closed under player-1 moves, given
    as per-position flags: the one :func:`reach` walk from init picks, at
    each player-0 position it reaches, the smallest action whose target is
    flagged, so only successors of reached positions are read.  The
    strategy is that walk's index form; the exact engines decode on the
    pruned game, so on the caller's game theirs convert by names."""
    out = game.out_edges
    taken: Moves = {}

    def pick(v: int, _) -> tuple[tuple[int, int], ...]:
        for edge in out[v]:
            if flags[edge[1]]:
                taken[v] = move = (edge,)
                return move
        raise AssertionError("support offers no successor at a reached position")

    return PositionalStrategy._from_walk(game, taken, reach(game, pick)[0])


def density(game: SafetyGame, strat: PositionalStrategy) -> int:
    """Number of player-0 positions reachable from init under ``strat``.

    Defined choices at unreachable positions do not count.  Counts the
    player-0 positions of its walk for ``game`` (:func:`_strategy_walk`),
    which are an index-form strategy's moves on its own game.
    """
    moves, order = _strategy_walk(game, strat)
    if strat._own is not None and strat._own[1] is moves:
        return len(moves)
    owner = game.pos_owner
    return sum(1 for v in order if owner[v] == 0)


def search_space_bits(game: SafetyGame, mp: MostPermissiveStrategy) -> float:
    """Sum of log2 of the allowed-action count over the player-0 entries
    of ``mp.moves``; positions with a single allowed action contribute 0.

    The benchmark harness reports this on the pruned game.
    """
    owner = game.pos_owner
    return sum(math.log2(len(e)) for v, e in mp.moves.items() if e and not owner[v])


def restrict_to_reachable(
    game: SafetyGame, strat: PositionalStrategy
) -> PositionalStrategy:
    """Drop choices at positions that no play consistent with the
    strategy can visit, read off its walk for ``game``
    (:func:`_strategy_walk`); an index-form strategy on its own game has
    none and is returned as is."""
    own = strat._own
    if own is not None and own[0]() is game:
        return strat
    reached = set(_strategy_walk(game, strat)[1])
    pos_index = game.pos_index
    return PositionalStrategy(
        {p: a for p, a in strat.choice.items() if pos_index.get(p) in reached}
    )
