"""Mealy-machine back-end.

For strictly alternating games where player 1 moves first, a winning
positional strategy becomes a transducer: states are the player-1
positions encountered at round boundaries, inputs are player-1 actions,
and each transition emits the strategy's reply.  A strategy of density n
yields at most n+1 states, because every non-initial round boundary is
the image of a distinct reachable player-0 position under the strategy.

A strategy automaton (a DFA over interleaved action letters that starts
with a player-1 letter) contracts the same way: every input/output letter
pair collapses into one transition.  The reply is the smallest output
letter whose target state is accepting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import (
    DfaDeadEndError,
    GameFormatError,
    InitNotPlayer1Error,
    NonAlternatingDfaError,
    NotAlternatingError,
)
from .game import PositionalStrategy, SafetyGame, _strategy_walk, parse_game


@dataclass(frozen=True)
class Dfa:
    """Deterministic automaton over owner-tagged action letters, held as
    the game its text parses to: states are positions, letters are
    actions, and a state's owner tells whose letter is read there.
    """

    game: SafetyGame
    accepting: frozenset[str]


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


def parse_dfa(text: bytes | str) -> Dfa:
    """Game grammar extended with ``accepting <id>`` records."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GameFormatError(f"input is not valid UTF-8: {exc}") from exc
    accepting: dict[str, int] = {}  # state -> line of its first record
    game_lines: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if parts[:1] == ["accepting"]:
            if len(parts) != 2:
                raise GameFormatError("expected 'accepting <id>'", lineno)
            accepting.setdefault(parts[1], lineno)
            raw = ""
        game_lines.append(raw)
    game = parse_game("\n".join(game_lines))
    for q, line in accepting.items():
        if q not in game.pos_index:
            raise GameFormatError(f"accepting names undeclared state {q!r}", line)
    return Dfa(game, frozenset(accepting))


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


def dfa_to_mealy(dfa: Dfa) -> MealyMachine:
    """Contract input/output letter pairs of a strategy automaton.

    States are the automaton states at input parity reachable after
    contraction.  At an intermediate state, output letters are tried in
    action id order (``out_edges`` is sorted by action index, which is
    name order) and the first whose target is accepting is the reply; a
    letter passed over must still lead to an input state.  Raises
    :class:`DfaDeadEndError` when no output letter leads to an accepting
    state.
    """
    game = dfa.game
    names, acts = game.pos_names, game.act_names
    owner, out = game.pos_owner, game.out_edges
    accepting = [name in dfa.accepting for name in names]
    if owner[game.init_index] != 1:
        raise NonAlternatingDfaError("the automaton must start with a player-1 letter")
    transitions: dict[tuple[str, str], tuple[str, str]] = {}
    seen = {game.init_index}
    queue = deque([game.init_index])
    while queue:
        q = queue.popleft()
        if owner[q] != 1:
            raise NonAlternatingDfaError(
                f"state {names[q]!r} reached at input parity but reads output letters"
            )
        for a, mid in out[q]:
            if owner[mid] != 0:
                raise NonAlternatingDfaError(
                    f"input letter {acts[a]!r} at {names[q]!r} "
                    "must lead to an output state"
                )
            if not out[mid]:
                raise DfaDeadEndError(
                    f"no output letter follows input {acts[a]!r} at state {names[q]!r}"
                )
            for reply, nxt in out[mid]:
                if accepting[nxt]:
                    break
                if owner[nxt] != 1:
                    raise NonAlternatingDfaError(
                        f"output letter {acts[reply]!r} at {names[mid]!r} "
                        "must lead to an input state"
                    )
            else:
                raise DfaDeadEndError(
                    f"no output letter after input {acts[a]!r} at state "
                    f"{names[q]!r} leads to an accepting state"
                )
            transitions[(names[q], acts[a])] = (names[nxt], acts[reply])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return MealyMachine(tuple(names[q] for q in sorted(seen)), game.init, transitions)


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
