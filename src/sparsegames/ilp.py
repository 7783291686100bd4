"""Exact minimum-density extraction by branch-and-bound over the LP
relaxation.

Both exact engines solve one reduced problem, built by :class:`_Frame`:
the positions that every support contains are fixed in, and only the
free ones stay variables.  On a set cover game that leaves the sets; an
unplanted 40-element cover's LP shrinks from 121 x 81 to 34 x 39.

Best-first search on nodes carrying variable fixings.  Each node's bound
is its LP optimum plus the forced player-0 count; a node is pruned once
the bound rounded up reaches the incumbent density.  Branching picks the
most fractional variable (fractional part closest to one half, smallest
index on ties) and explores the fix-to-0 child first.  The incumbent
starts from the all-ones support and is always a valid winning strategy;
when the node budget or the deadline runs out it is returned uncertified.

A child differs from its parent only in one bound, so the parent's
optimal basis stays dual feasible for it and the dual simplex needs only
a few pivots from there (Land & Doig 1960; Koberstein, *The Dual Simplex
Method*, 2005).  A heap node keeps only its basis header (m basis
indices and n + m bound flags), not its tableau.  A popped node's tableau
is rebuilt once from the root's optimal tableau, pivoting in only the
columns where the two bases differ, and each child solve gets a copy.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from .game import Arena, MostPermissiveStrategy, PositionalStrategy, SafetyGame
from .lp import (
    INTEGRALITY_EPS,
    LpProblem,
    Tableau,
    decode_support,
    lp_solve,
    pair_rows,
    pruned_context,
    support_rows,
)

DEFAULT_NODE_BUDGET = 10**6


@dataclass(eq=False)
class ExactResult:
    """Outcome of an exact engine: the best strategy found, its density,
    whether optimality was certified (no budget or deadline ran out), and
    how much work was spent."""

    strategy: PositionalStrategy
    density: int
    certified: bool
    work: int


class _Frame:
    """The pruned game, its reduced problem, the root LP of that problem
    solved cold and the root's optimal ``tableau``, the lower bound ``lb``,
    and the incumbent of both exact engines: the decoded all-ones support,
    which flags every pruned position and so is always valid, replaced by
    every strictly sparser decoded support.  A decoded strategy names the
    player-0 positions its walk reaches in the pruned game, which keeps
    every edge of a reached player-1 position, so its density in ``game``
    is its number of choices.

    The reduced problem leaves out the ``forced`` positions, which every
    support contains by unit propagation of the support rows: the forced
    closure that :class:`Arena` flags ``doomed`` at construction, here of
    the pruned game, where every allowed target is live.  ``offset``
    counts the forced player-0 ones.  Its variables are the ``free``
    positions in index order (``column`` maps a pruned position to its
    variable, -1 when forced), and its ``pairs`` are the
    :func:`support_rows` pairs without a forced target, in their order,
    with ``None`` for a forced source.
    ``problem`` is their LP (:func:`pair_rows`), and ``sat`` encodes the
    same pairs.  The root optimum plus ``offset``, rounded up, is ``lb``.

    An integral root is offered at once: its support has at most ``lb``
    player-0 positions, so it certifies ``ub == lb`` before any search.
    Integrality is judged on the values, since a fractional root can have
    an integral objective.
    """

    def __init__(self, game: SafetyGame, mp: MostPermissiveStrategy):
        self.pruned, self.mp = pruned_context(game, mp)
        owner = self.pruned.pos_owner
        forced = Arena(self.pruned).doomed
        self.forced = np.array(forced, dtype=bool)
        self.free = np.flatnonzero(~self.forced)
        free = self.free.tolist()
        self.offset = sum(1 for f, o in zip(forced, owner) if f and o == 0)
        self.column = [-1] * len(owner)
        for i, v in enumerate(free):
            self.column[v] = i
        self.pairs = [
            (None if forced[v] else v, targets)
            for v, targets in support_rows(self.pruned, self.mp)
            if not any([forced[d] for d in targets])
        ]
        n = len(free)
        rows, rhs = pair_rows(self.pairs, self.column, n)
        self.problem = LpProblem(
            tuple([self.pruned.pos_names[v] for v in free]),
            [1.0 if owner[v] == 0 else 0.0 for v in free],
            rows, rhs, np.zeros(n), np.ones(n),
        )
        self.best = decode_support(self.pruned, [True] * len(owner))
        self.ub = len(self.best.choice)
        self.tableau = Tableau.surplus(self.problem)
        self.root = lp_solve(self.problem, self.tableau)
        if self.root.status == "infeasible":
            raise AssertionError("relaxation of a winnable game cannot be infeasible")
        self.lb = self.bound(self.root.objective_value)
        v = self.root.values
        if ((v <= INTEGRALITY_EPS) | (v >= 1.0 - INTEGRALITY_EPS)).all():
            self.offer(v >= 1.0 - INTEGRALITY_EPS)

    def bound(self, objective: float) -> int:
        """The density bound of a reduced objective: plus ``offset``,
        rounded up."""
        return math.ceil(self.offset + objective - INTEGRALITY_EPS)

    def offer(self, flags) -> None:
        """Decode a support given as flags of the free positions, lifted to
        the forced ones, and keep it when it is strictly sparser."""
        support = self.forced.copy()
        support[self.free] = flags
        candidate = decode_support(self.pruned, support)
        if len(candidate.choice) < self.ub:
            self.best, self.ub = candidate, len(candidate.choice)

    def record(self, stats: dict) -> None:
        """Record the forced player-0 count and the reduced LP's shape."""
        stats["forced"] = self.offset
        stats["lp_shape"] = self.problem.rows.shape

    def result(self, certified: bool, work: int) -> ExactResult:
        return ExactResult(self.best, self.ub, certified, work)


def ilp_exact_extract(
    game: SafetyGame,
    mp: MostPermissiveStrategy,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    warm_seed: int = 0,
    deadline: float | None = None,
    stats: dict | None = None,
) -> ExactResult:
    """Minimum-density positional strategy via branch-and-bound.

    The root LP and the all-ones incumbent come from :class:`_Frame`;
    every integral node's support is offered to it, the root's by the
    frame itself, so an integral root ends the search before any node is
    expanded.  Each child LP starts from a copy of its parent's optimal
    tableau.  ``work`` counts LP solves, the root included.  When the
    node budget or the ``deadline`` runs out before a child LP, the
    incumbent is returned with ``certified=False``.  ``warm_seed`` is
    ignored.  When a ``stats`` dict is supplied, every expanded node is
    recorded under ``"nodes"`` as (bound, positions of the pruned game
    fixed to 0, positions fixed to 1, the forced ones included), with the
    forced player-0 count in the bound.  The simplex pivots of every LP
    solve go under ``"pivots"``, the forced player-0 count under
    ``"forced"`` and the reduced LP's (rows, variables) under
    ``"lp_shape"``.
    """
    frame = _Frame(game, mp)
    problem = frame.problem
    n = len(problem.var_names)
    free = frame.free
    forced = frozenset(np.flatnonzero(frame.forced).tolist())
    eps = INTEGRALITY_EPS
    lp_solves = 1
    pivots = frame.root.pivots
    certified = True

    # Heap entries: (bound, -depth, tiebreak counter, lo, hi, solution).
    counter = 0
    root = frame.root
    heap = [(root.objective_value, 0, counter, problem.lo, problem.hi, root)]
    node_log = [] if stats is not None else None
    while heap:
        bound, neg_depth, _, lo, hi, sol = heapq.heappop(heap)
        if frame.bound(bound) >= frame.ub:
            break  # best-first: every remaining node is at least as bad
        if node_log is not None:
            node_log.append(
                (
                    frame.offset + bound,
                    frozenset(free[hi <= 0.0].tolist()),
                    forced | frozenset(free[lo >= 1.0].tolist()),
                )
            )
        v = sol.values
        fractional = [i for i in range(n) if eps < v[i] < 1.0 - eps]
        if not fractional:
            frame.offer(v >= 1.0 - eps)
            continue
        branch = min(fractional, key=lambda i: (abs(v[i] - 0.5), i))
        start = frame.tableau.rebuilt(sol.basis, sol.upper)
        for fix_value in (0.0, 1.0):
            if lp_solves >= node_budget or (
                deadline is not None and time.monotonic() > deadline
            ):
                certified = False
                break
            c_lo = lo.copy()
            c_hi = hi.copy()
            if fix_value == 0.0:
                c_hi[branch] = 0.0
            else:
                c_lo[branch] = 1.0
            lp_solves += 1
            child = lp_solve(problem.with_bounds(c_lo, c_hi), start.copy())
            pivots += child.pivots
            if child.status == "infeasible":
                continue
            if frame.bound(child.objective_value) >= frame.ub:
                continue
            counter += 1
            heapq.heappush(
                heap,
                (child.objective_value, neg_depth - 1, counter, c_lo, c_hi, child),
            )
        if not certified:
            break
    if stats is not None:
        stats["nodes"] = node_log
        stats["pivots"] = pivots
        frame.record(stats)
    return frame.result(certified, lp_solves)
