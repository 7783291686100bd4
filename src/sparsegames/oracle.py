"""Brute-force ground truth for the extraction engines.

These routines are exhaustive and guarded: they refuse instances beyond
a hard size limit instead of approximating, because every other engine
is tested against them.  Both walk the caller's game with the package's
one walk, :func:`~sparsegames.game.reach`.
"""

from __future__ import annotations

from .errors import InitLosingError, SearchSpaceTooLargeError
from .game import (
    Arena,
    MostPermissiveStrategy,
    Moves,
    PositionalStrategy,
    SafetyGame,
    decode_support,
    density,
    reach,
    search_space_bits,
)
from .lp import pruned_context

BRUTE_FORCE_BITS_GUARD = 24.0
LOCAL_OPTIMA_POSITION_GUARD = 18


def brute_force_min_density(
    game: SafetyGame, mp: MostPermissiveStrategy
) -> tuple[int, PositionalStrategy]:
    """Minimum density over every specialization of the most-permissive
    strategy, by exhaustive reachability-aware enumeration.

    Each search node walks (:func:`reach`) under its choices; the player-0
    positions it reaches without one are its frontier, and it branches at
    the smallest of them over its actions in ``mp.moves``.  Returns the
    minimum and the first witness found (deterministic), in index form on
    ``game``.  Raises :class:`SearchSpaceTooLargeError` when the pruned
    game's search space exceeds the 24-bit guard.
    """
    bits = search_space_bits(*pruned_context(game, mp))
    if bits > BRUTE_FORCE_BITS_GUARD:
        raise SearchSpaceTooLargeError(
            f"search space is {bits:.2f} bits, guard is {BRUTE_FORCE_BITS_GUARD}"
        )
    best: tuple[int, PositionalStrategy | None] = (len(game.pos_owner) + 1, None)
    choice: Moves = {}

    def rec() -> None:
        nonlocal best
        frontier: list[int] = []

        def pick(v: int, _) -> tuple[tuple[int, int], ...]:
            move = choice.get(v, ())
            if not move:
                frontier.append(v)
            return move

        order = reach(game, pick)[0]
        taken = {v: choice[v] for v in order if v in choice}
        count = len(taken) + len(frontier)
        if count >= best[0]:
            return
        if not frontier:
            best = count, PositionalStrategy._from_walk(game, taken, order)
            return
        v = min(frontier)
        for edge in mp.moves[v]:
            choice[v] = (edge,)
            rec()
        del choice[v]

    rec()
    assert best[1] is not None
    return best


def enumerate_local_optima(game: SafetyGame) -> set[int]:
    """Densities of all maximal deletable sets Z of player-0 positions.

    Z is deletable when the game stays won from init after removing all
    outgoing edges of every member; maximal means no single position can
    be added.  Each maximal set scores the density read off its winning
    region (:func:`decode_support`).  A winning position that the
    most-permissive walk does not reach has no edge from that walk, so
    deleting it never reaches init and every maximal set holds it: the
    search deletes those first and is guarded to 18 reachable ones.

    The depth-first search adds candidates in increasing index order and
    carries the :class:`Arena` of its current set, so each child is one
    ``try_delete`` on a copy.  That is exact because the winning region is
    antitone in the deleted edges: the whole set keeps init winning exactly
    when every prefix of it does, and deleting the members one by one in
    any order decides it.
    """
    base = Arena(game)
    alive, out = base.alive, game.out_edges
    if not alive[game.init_index]:
        raise InitLosingError("local optima are only defined for winnable games")
    walked = set(reach(game, lambda v, _: [e for e in out[v] if alive[e[1]]])[0])
    candidates = [v for v in game.candidates if v in walked]
    for v in sorted(set(game.candidates) - walked):
        base.try_delete(v)
    n = len(candidates)
    if n > LOCAL_OPTIMA_POSITION_GUARD:
        raise SearchSpaceTooLargeError(
            f"{n} reachable winning player-0 positions, guard is {LOCAL_OPTIMA_POSITION_GUARD}"
        )
    densities: set[int] = set()

    def dfs(arena: Arena, mask: int, start: int) -> None:
        is_maximal = True
        for idx, v in enumerate(candidates):
            if mask >> idx & 1:
                continue
            child = arena.copy()
            if child.try_delete(v):
                is_maximal = False
                if idx >= start:
                    dfs(child, mask | 1 << idx, idx + 1)
        if is_maximal:
            densities.add(density(game, decode_support(game, arena.alive)))

    dfs(base, 0, 0)
    return densities
