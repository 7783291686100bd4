"""Mealy-machine back-end.

For strictly alternating games where player 1 moves first, a winning
positional strategy becomes a transducer: states are the player-1
positions encountered at round boundaries, inputs are player-1 actions,
and each transition emits the strategy's reply.  A strategy of density n
yields at most n+1 states, because every non-initial round boundary is
the image of a distinct reachable player-0 position under the strategy.

A strategy automaton (a DFA over interleaved action letters that starts
with a player-1 letter) contracts the same way: every input/output letter
pair collapses into one transition.  When the automaton offers several
output letters, the smallest action id is taken.
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
from .game import PositionalStrategy, SafetyGame


@dataclass(frozen=True)
class Dfa:
    """Deterministic automaton over owner-tagged action letters.

    ``state_owner[q]`` tells whose letter is read at q, mirroring the
    game file grammar (states are declared like positions, plus
    ``accepting <id>`` records).
    """

    states: tuple[str, ...]
    initial: str
    accepting: frozenset[str]
    transitions: dict[tuple[str, str], str]
    state_owner: dict[str, int]
    action_owner: dict[str, int]


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
    accepting: set[str] = set()
    game_lines: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            game_lines.append("")
            continue
        parts = line.split()
        if parts[0] == "accepting":
            if len(parts) != 2:
                raise GameFormatError("expected 'accepting <id>'", lineno)
            accepting.add(parts[1])
            game_lines.append("")
        else:
            game_lines.append(line)
    from .game import parse_game

    game = parse_game("\n".join(game_lines))
    for q in accepting:
        if q not in game.pos_index:
            raise GameFormatError(f"accepting names undeclared state {q!r}")
    owner = {p: game.pos_owner[game.pos_index[p]] for p in game.pos_names}
    act_owner = {a: game.act_owner[game.act_index[a]] for a in game.act_names}
    return Dfa(
        states=game.pos_names,
        initial=game.init,
        accepting=frozenset(accepting),
        transitions=dict(game.edges),
        state_owner=owner,
        action_owner=act_owner,
    )


def _check_alternating(game: SafetyGame) -> None:
    for (src, _act), dst in game.edges.items():
        if game.pos_owner[game.pos_index[src]] == game.pos_owner[game.pos_index[dst]]:
            raise NotAlternatingError(
                f"edge {src!r} -> {dst!r} stays with the same player"
            )


def strategy_to_mealy(game: SafetyGame, strat: PositionalStrategy) -> MealyMachine:
    """Fold a winning positional strategy into a Mealy machine.

    Requires a strictly alternating game with a player-1 initial
    position.  States are keyed by the player-1 position reached after
    the strategy's reply, merging player-0 positions with coinciding
    continuations in a single forward pass; no minimization beyond that.
    """
    _check_alternating(game)
    if game.init not in game.positions1:
        raise InitNotPlayer1Error("the initial position must belong to player 1")
    transitions: dict[tuple[str, str], tuple[str, str]] = {}
    seen = {game.init}
    queue = deque([game.init])
    while queue:
        state = queue.popleft()
        v = game.pos_index[state]
        for a, d in game.out_edges[v]:
            input_act = game.act_names[a]
            mid = game.pos_names[d]
            reply = strat.choice.get(mid)
            if reply is None:
                raise ValueError(
                    f"strategy undefined at reachable position {mid!r}"
                )
            nxt = game.edges[(mid, reply)]
            transitions[(state, input_act)] = (nxt, reply)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return MealyMachine(tuple(sorted(seen)), game.init, transitions)


def dfa_to_mealy(dfa: Dfa) -> MealyMachine:
    """Contract input/output letter pairs of a strategy automaton.

    States are the automaton states at input parity reachable after
    contraction.  At an intermediate state offering several output
    letters, the smallest action id is picked.
    """
    if dfa.state_owner[dfa.initial] != 1:
        raise NonAlternatingDfaError("the automaton must start with a player-1 letter")
    by_state: dict[str, list[tuple[str, str]]] = {q: [] for q in dfa.states}
    for (q, act), dst in dfa.transitions.items():
        by_state[q].append((act, dst))
    for q, outs in by_state.items():
        owners = {dfa.action_owner[a] for a, _ in outs}
        if len(owners) > 1:
            raise NonAlternatingDfaError(
                f"state {q!r} mixes input and output letters"
            )

    transitions: dict[tuple[str, str], tuple[str, str]] = {}
    seen = {dfa.initial}
    queue = deque([dfa.initial])
    while queue:
        q = queue.popleft()
        if dfa.state_owner[q] != 1:
            raise NonAlternatingDfaError(
                f"state {q!r} reached at input parity but reads output letters"
            )
        for act, mid in sorted(by_state[q]):
            if dfa.state_owner[mid] != 0:
                raise NonAlternatingDfaError(
                    f"input letter {act!r} at {q!r} must lead to an output state"
                )
            replies = sorted(by_state[mid])
            if not replies:
                raise DfaDeadEndError(
                    f"no output letter follows input {act!r} at state {q!r}"
                )
            out, nxt = replies[0]
            transitions[(q, act)] = (nxt, out)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return MealyMachine(tuple(sorted(seen)), dfa.initial, transitions)


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
