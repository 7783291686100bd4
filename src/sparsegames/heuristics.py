"""Randomized strategy extraction.

Two methods with very different cost/quality trade-offs:

* :func:`random_extract` picks one allowed action per winning player-0
  position uniformly at random and drops everything that becomes
  unreachable.
* :func:`smart_random_extract` walks the winning player-0 positions in a
  seeded random permutation and greedily leaves positions undefined
  (deletes their outgoing edges) whenever the game stays won, producing
  a locally optimal strategy in polynomial time.  The positions that
  every winning support contains (the forced closure the exact engines
  fix too) are rejected without a cascade.

Both are fully determined by the seed: permutations and draws use the
package RNG over positions sorted by id, so parse order never leaks into
results.
"""

from __future__ import annotations

import time

import numpy as np

from .errors import InitLosingError, TimeoutExceededError
from .game import (
    Arena,
    Moves,
    MostPermissiveStrategy,
    PositionalStrategy,
    SafetyGame,
    _strategy_walk,
    _walked,
    decode_support,
    reach,
)
from .rng import SplitMix64

#: Candidates tried between two reads of the local search's deadline.
DEADLINE_BLOCK = 256


def random_extract(
    game: SafetyGame, mp: MostPermissiveStrategy, seed: int
) -> PositionalStrategy:
    """Uniform random specialization of the most-permissive strategy,
    restricted to its reachable domain.

    One draw per player-0 entry of ``mp.moves`` over the bounds ``mp``
    keeps (:func:`_draw_plan`); only the positions the one :func:`reach`
    walk visits build a move.  The strategy carries that walk for its
    first use on ``game`` (:func:`_strategy_walk`)."""
    if game.init_index not in mp.moves:
        raise InitLosingError("cannot extract a strategy for a losing game")
    moves = mp.moves
    slot, bounds = _draw_plan(game, mp)
    draws = SplitMix64(seed).below_each(bounds)
    taken: Moves = {}

    def move(v: int, _) -> tuple[tuple[int, int], ...]:
        taken[v] = edge = (moves[v][draws[slot[v]]],)
        return edge

    return _walked(game, taken, reach(game, move)[0])


def _draw_plan(game: SafetyGame, mp: MostPermissiveStrategy) -> tuple[list[int], np.ndarray]:
    """Per position of ``game``, its place among the player-0 entries of
    ``mp.moves`` (-1 elsewhere), and those entries' move counts as uint64
    bounds for :meth:`SplitMix64.below_each`.  Index order is sorted-name
    order and each entry lists its actions in name order, so a seed draws
    the same actions whatever the parse order.  ``mp`` is in index form,
    so it belongs to one game; the plan is built on first use and kept
    on it."""
    if mp._draws is None:
        owner = game.pos_owner
        slot, counts = [-1] * len(owner), []
        for v, edges in mp.moves.items():
            if not owner[v]:
                slot[v] = len(counts)
                counts.append(len(edges))
        object.__setattr__(mp, "_draws", (slot, np.array(counts, dtype=np.uint64)))
    return mp._draws


def smart_random_extract(
    game: SafetyGame,
    winning: frozenset[str],
    seed: int,
    *,
    deadline: float | None = None,
) -> PositionalStrategy:
    """Greedy local search for a maximal set of undefined positions.

    Visits the winning player-0 positions in a seeded uniform random
    permutation; for each, tentatively deletes all its outgoing edges and
    keeps the deletion exactly when the initial position stays winning.
    Removing edges never enlarges the winning region, so each tentative
    check cascades from the current region instead of re-solving from
    scratch; a rejected deletion is rolled back.  The arena copies the
    game's initial fixpoint, solved once per game, with the forced
    closure, which every winning support contains, flagged as
    undeletable, and remembers each failed deletion, so a cascade that
    kills a flagged position stops at once.  Each candidate costs exactly
    one ``Arena.try_delete`` call.  The result is the smallest-action
    specialization of what remains, restricted to its reachable domain,
    and is locally optimal.  The ``deadline`` is read before each block of
    ``DEADLINE_BLOCK`` candidates.

    ``winning`` should be the winning region of ``game``.  Init counts as
    losing when it is outside ``winning`` or outside the game's initial
    fixpoint.  The candidates are the player-0 positions of that fixpoint,
    listed in index order, which is sorted-name order, once per game
    (:attr:`SafetyGame.candidates`); each seed shuffles a copy.  The
    strategy carries the walk of :func:`decode_support`.
    """
    arena = Arena(game)
    if game.init not in winning or not arena.alive[game.init_index]:
        raise InitLosingError("cannot extract a strategy for a losing game")
    order = list(game.candidates)
    SplitMix64(seed).shuffle(order)
    for start in range(0, len(order), DEADLINE_BLOCK):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutExceededError("local search deadline expired")
        for v in order[start:start + DEADLINE_BLOCK]:
            arena.try_delete(v)

    return decode_support(game, arena.alive)


def is_locally_optimal(game: SafetyGame, strat: PositionalStrategy) -> bool:
    """True iff no reachable choice of ``strat`` can be left undefined.

    A position v of the reachable domain can be dropped when the game is
    still won from init after removing the outgoing edges of v *and* of
    every player-0 position outside the strategy's reachable domain (the
    positions the strategy already leaves undefined).  A strategy with an
    empty reachable domain is vacuously locally optimal.  Raises
    ``ValueError`` for a strategy that is not winning, which is one whose
    walk reaches an undefined player-0 position: every play that avoids
    those is infinite or ends at player 1.  Deleting the undefined
    positions of a winning strategy keeps init winning.
    """
    moves, order = _strategy_walk(game, strat)
    owner = game.pos_owner
    domain = sorted(v for v in order if owner[v] == 0)
    if any(v not in moves for v in domain):
        raise ValueError("strategy is not winning: its walk reaches an undefined position")
    arena = Arena(game)
    reached = set(domain)
    for u in range(len(owner)):
        if owner[u] == 0 and u not in reached:
            arena.try_delete(u)
    # A failed deletion restores the arena; the first kept one ends the test.
    return not any(arena.try_delete(v) for v in domain)
