"""Mealy-machine back-end.

For strictly alternating games where player 1 moves first, a winning
positional strategy becomes a transducer: states are the player-1
positions encountered at round boundaries, inputs are player-1 actions,
and each transition emits the strategy's reply.  A strategy of density n
yields at most n+1 states, because every non-initial round boundary is
the image of a distinct reachable player-0 position under the strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InitNotPlayer1Error, NotAlternatingError
from .game import PositionalStrategy, SafetyGame, _strategy_walk


@dataclass(frozen=True)
class MealyMachine:
    states: tuple[str, ...]
    initial: str
    transitions: dict[tuple[str, str], tuple[str, str]] = field(default_factory=dict)

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

    The states are the player-1 positions of the strategy's kept walk for
    ``game`` (``game._strategy_walk``), folded in its breadth-first order.
    Alternation is read from the game's kept ``same_player_edge``.
    """
    _check_alternating(game)
    if game.pos_owner[game.init_index] != 1:
        raise InitNotPlayer1Error("the initial position must belong to player 1")
    names, acts, out, owner = game.pos_names, game.act_names, game.out_edges, game.pos_owner
    moves, order = _strategy_walk(game, strat)
    states = [q for q in order if owner[q]]
    transitions: dict[tuple[str, str], tuple[str, str]] = {}
    for q in states:
        for a, mid in out[q]:
            reply = moves.get(mid)
            if reply is None:
                raise ValueError(
                    f"strategy undefined at reachable position {names[mid]!r}"
                )
            r, nxt = reply[0]
            transitions[(names[q], acts[a])] = (names[nxt], acts[r])
    return MealyMachine(tuple(names[q] for q in sorted(states)), game.init, transitions)


def serialize_mealy(machine: MealyMachine) -> bytes:
    """``mealy <statecount> <initial>`` header, then sorted ``trans
    <state> <in> <out> <state>`` lines."""
    lines = [f"mealy {len(machine.states)} {machine.initial}"]
    lines.extend(
        sorted(
            f"trans {state} {inp} {out} {nxt}"
            for (state, inp), (nxt, out) in machine.transitions.items()
        )
    )
    return ("\n".join(lines) + "\n").encode("utf-8")
