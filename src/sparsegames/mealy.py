"""Mealy-machine back-end.

For strictly alternating games where player 1 moves first, a winning
positional strategy becomes a transducer: states are the player-1
positions encountered at round boundaries, inputs are player-1 actions,
and each transition emits the strategy's reply.  A strategy of density n
yields at most n+1 states, because every non-initial round boundary is
the image of a distinct reachable player-0 position under the strategy.

A folded machine is in index form on its game and names its states,
initial state and transitions on first read; :func:`serialize_mealy`
writes its lines straight from the index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InitNotPlayer1Error, NotAlternatingError
from .game import Moves, PositionalStrategy, SafetyGame, _strategy_walk


@dataclass(frozen=True)
class MealyMachine:
    """A machine built from names keeps them; one folded by
    :func:`strategy_to_mealy` keeps its game, the strategy's moves and
    its player-1 states in walk order, which is the order of
    ``transitions``, and names each field on first read.  Both compare,
    print, pickle and copy by names alone."""

    states: tuple[str, ...]
    initial: str
    transitions: dict[tuple[str, str], tuple[str, str]] = field(default_factory=dict)
    _own = None  # the index form's game, moves and player-1 states

    @classmethod
    def _from_fold(cls, game: SafetyGame, moves: Moves, states: list[int]) -> "MealyMachine":
        machine = object.__new__(cls)
        object.__setattr__(machine, "_own", (game, moves, states))
        return machine

    def __getattr__(self, name: str):
        # Only an index-form machine lacks its fields until first read.
        if self._own is None or name not in ("states", "initial", "transitions"):
            raise AttributeError(name)
        game, moves, states = self._own
        names, acts = game.pos_names, game.act_names
        if name == "states":
            value = tuple([names[q] for q in sorted(states)])
        elif name == "initial":
            value = game.init
        else:
            value = {}
            for q in states:
                for a, mid in game.out_edges[q]:
                    r, nxt = moves[mid][0]
                    value[(names[q], acts[a])] = (names[nxt], acts[r])
        object.__setattr__(self, name, value)
        return value

    def __reduce__(self):
        # Pickle and deep-copy the names only.
        return MealyMachine, (self.states, self.initial, dict(self.transitions))

    def run(self, inputs: list[str]) -> list[str]:
        """Outputs produced on an input word; raises KeyError on an
        undefined input."""
        state = self.initial
        outputs = []
        for u in inputs:
            state, out = self.transitions[(state, u)]
            outputs.append(out)
        return outputs


def _check_alternating(game: SafetyGame) -> None:
    edge = game.same_player_edge
    if edge is not None:
        names = game.pos_names
        raise NotAlternatingError(
            f"edge {names[edge[0]]!r} -> {names[edge[1]]!r} stays with the same player"
        )


def strategy_to_mealy(game: SafetyGame, strat: PositionalStrategy) -> MealyMachine:
    """Fold a winning positional strategy into a Mealy machine.

    Requires a strictly alternating game with a player-1 initial
    position.  States are keyed by the player-1 position reached after
    the strategy's reply, merging player-0 positions with coinciding
    continuations in a single forward pass; no minimization beyond that.
    A choice that names no edge of ``game`` counts as undefined.

    The states are the player-1 positions of the strategy's walk for
    ``game`` (``game._strategy_walk``).  The walk takes every edge of a
    player-1 position, and in an alternating game each reaches a player-0
    position, so the fold checks every player-1 edge's reply by checking
    that each player-0 position of the walk has a move; the first in
    walk order without one is the error.  The machine is kept in index
    form, as the game, the moves and those states, and names its fields
    on first read.  Alternation is read from the game's kept
    ``same_player_edge``.
    """
    _check_alternating(game)
    if game.pos_owner[game.init_index] != 1:
        raise InitNotPlayer1Error("the initial position must belong to player 1")
    owner = game.pos_owner
    moves, order = _strategy_walk(game, strat)
    states = []
    for v in order:
        if owner[v]:
            states.append(v)
        elif v not in moves:
            raise ValueError(f"strategy undefined at reachable position {game.pos_names[v]!r}")
    return MealyMachine._from_fold(game, moves, states)


def serialize_mealy(machine: MealyMachine) -> bytes:
    """``mealy <statecount> <initial>`` header, then sorted ``trans
    <state> <in> <out> <state>`` lines, a folded machine's straight from
    its index arrays."""
    own = machine._own
    if own is None:
        header = f"mealy {len(machine.states)} {machine.initial}"
        lines = [
            f"trans {state} {inp} {out} {nxt}"
            for (state, inp), (nxt, out) in machine.transitions.items()
        ]
    else:
        game, moves, states = own
        names, acts, out = game.pos_names, game.act_names, game.out_edges
        header = f"mealy {len(states)} {game.init}"
        lines = []
        for q in states:
            head = f"trans {names[q]} "
            for a, mid in out[q]:
                r, nxt = moves[mid][0]
                lines.append(f"{head}{acts[a]} {acts[r]} {names[nxt]}")
    lines.sort()
    lines.insert(0, header)
    return ("\n".join(lines) + "\n").encode("utf-8")
