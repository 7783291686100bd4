"""Brute-force ground truth for the extraction engines.

These routines are exhaustive and guarded: they refuse instances beyond
a hard size limit instead of approximating, because every other engine
is tested against them.
"""

from __future__ import annotations

from collections import deque

from .errors import InitLosingError, SearchSpaceTooLargeError
from .game import (
    Arena,
    MostPermissiveStrategy,
    PositionalStrategy,
    SafetyGame,
    restrict_to_reachable,
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

    Returns the minimum and the first witness found when branching over
    positions in index order and actions in sorted order (deterministic).
    Raises :class:`SearchSpaceTooLargeError` above the 24-bit guard.
    """
    pruned, mp2 = pruned_context(game, mp)
    bits = search_space_bits(pruned, mp2)
    if bits > BRUTE_FORCE_BITS_GUARD:
        raise SearchSpaceTooLargeError(
            f"search space is {bits:.2f} bits, guard is {BRUTE_FORCE_BITS_GUARD}"
        )
    n = len(pruned.pos_names)
    owner = pruned.pos_owner
    out = pruned.out_edges
    init = pruned.init_index

    allowed_acts: list[tuple[tuple[int, int], ...]] = [out[v] for v in range(n)]

    best_density = n + 1
    best_choice: dict[int, int] | None = None

    def closure(choice: dict[int, int]) -> tuple[set[int], list[int]]:
        """Reachable set under partial choices plus undecided frontier."""
        seen = {init}
        queue = deque([init])
        frontier: list[int] = []
        while queue:
            v = queue.popleft()
            if owner[v] == 0:
                act = choice.get(v)
                if act is None:
                    frontier.append(v)
                    continue
                targets = [d for a, d in out[v] if a == act]
                for d in targets:
                    if d not in seen:
                        seen.add(d)
                        queue.append(d)
            else:
                for _, d in out[v]:
                    if d not in seen:
                        seen.add(d)
                        queue.append(d)
        return seen, frontier

    def rec(choice: dict[int, int]) -> None:
        nonlocal best_density, best_choice
        seen, frontier = closure(choice)
        count = sum(1 for v in seen if owner[v] == 0)
        if count >= best_density:
            return
        if not frontier:
            best_density = count
            best_choice = dict(choice)
            return
        v = min(frontier)
        for act, _ in allowed_acts[v]:
            choice[v] = act
            rec(choice)
        del choice[v]

    rec({})
    assert best_choice is not None
    witness = PositionalStrategy(
        {
            pruned.pos_names[v]: pruned.act_names[a]
            for v, a in best_choice.items()
        }
    )
    # The recorded choice map may include frontier decisions that became
    # unreachable under later decisions; trim to the reachable domain.
    return best_density, restrict_to_reachable(pruned, witness)


def _residual_density(game: SafetyGame, deleted: set[int]) -> int:
    """Density of the smallest-action specialization once the positions
    in ``deleted`` have lost their outgoing edges."""
    arena = Arena(game)
    for v in sorted(deleted):
        if not arena.try_delete(v):
            raise AssertionError("residual density requested for an unkept deletion")
    alive = arena.alive
    owner = game.pos_owner
    out = game.out_edges
    seen = {game.init_index}
    queue = deque([game.init_index])
    count = 0
    while queue:
        v = queue.popleft()
        if owner[v] == 0:
            count += 1
            for _, d in out[v]:
                if alive[d]:
                    if d not in seen:
                        seen.add(d)
                        queue.append(d)
                    break
        else:
            for _, d in out[v]:
                if d not in seen:
                    seen.add(d)
                    queue.append(d)
    return count


def enumerate_local_optima(game: SafetyGame) -> set[int]:
    """Densities of all maximal deletable sets Z of player-0 positions.

    Z is deletable when the game stays won from init after removing all
    outgoing edges of every member; maximal means no single position can
    be added.  Guarded to at most 18 winning player-0 positions.

    The depth-first search adds candidates in increasing index order and
    carries the :class:`Arena` of its current set, so each child is one
    ``try_delete`` on a copy.  That is exact because the winning region
    is antitone in the deleted edges: the whole set keeps init winning
    exactly when every prefix of it does, and deleting the members one
    by one in any order decides it.
    """
    base = Arena(game)
    if not base.alive[game.init_index]:
        raise InitLosingError("local optima are only defined for winnable games")
    owner = game.pos_owner
    candidates = [v for v in base.winning_indices() if owner[v] == 0]
    n = len(candidates)
    if n > LOCAL_OPTIMA_POSITION_GUARD:
        raise SearchSpaceTooLargeError(
            f"{n} winning player-0 positions, guard is {LOCAL_OPTIMA_POSITION_GUARD}"
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
            deleted = {candidates[idx] for idx in range(n) if mask >> idx & 1}
            densities.add(_residual_density(game, deleted))

    dfs(base, 0, 0)
    return densities
