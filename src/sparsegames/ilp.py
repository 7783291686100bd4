"""Exact minimum-density extraction by branch-and-bound over the LP
relaxation.

Like ``replp`` and ``sat``, this engine solves the one reduced problem
built by :class:`sparsegames.lp._Frame`: the positions that every
support contains are fixed in, and only the free ones stay variables.
On a set cover game that leaves the sets; an unplanted 40-element
cover's LP shrinks from 121 x 81 to 34 x 39.

Plunging search on nodes carrying variable fixings.  Each node's bound
is its LP optimum plus the forced player-0 count; a node is pruned once
the bound rounded up reaches the incumbent density.  The open node with
the smallest rounded bound is expanded next, the deepest among equals
and then the one with the smallest unrounded bound: best-first across
rounded bounds, depth-first within one.  Nodes are still expanded in
nondecreasing rounded bound, so the first popped node whose rounded
bound reaches the incumbent density certifies it.  Branching picks the
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
columns where the two bases differ; the fix-0 child solves on a copy of
it and the fix-1 child on the tableau itself.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from .game import MostPermissiveStrategy, PositionalStrategy, SafetyGame
from .lp import INTEGRALITY_EPS, _Frame, _fractional, lp_solve

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
    expanded.  Each child LP starts from its parent's optimal tableau.
    ``work`` counts LP solves, the root included.  When the node budget
    or the ``deadline`` runs out before a child LP, the incumbent is
    returned with ``certified=False``.  ``warm_seed`` is ignored.  When a
    ``stats`` dict is supplied, every expanded node is recorded under
    ``"nodes"`` as (bound, positions of the pruned game fixed to 0,
    positions fixed to 1, the forced ones included), with the forced
    player-0 count in the bound.  The simplex pivots of every LP solve go
    under ``"pivots"``, the forced player-0 count under ``"forced"`` and
    the reduced LP's (rows, variables) under ``"lp_shape"``.
    """
    frame = _Frame(game, mp)
    problem = frame.problem
    free = frame.free
    forced = frozenset(np.flatnonzero(frame.forced).tolist()) if stats is not None else None
    lp_solves = 1
    pivots = frame.root.pivots
    certified = True

    # Heap entries: (rounded bound, -depth, bound, tiebreak counter, lo,
    # hi, solution).
    counter = 0
    root = frame.root
    heap = [(frame.lb, 0, root.objective_value, counter, problem.lo, problem.hi, root)]
    node_log = [] if stats is not None else None
    while heap:
        rounded, neg_depth, bound, _, lo, hi, sol = heapq.heappop(heap)
        if rounded >= frame.ub:
            break  # pops come in nondecreasing rounded bound
        if node_log is not None:
            node_log.append(
                (
                    frame.offset + bound,
                    frozenset(free[hi <= 0.0].tolist()),
                    forced | frozenset(free[lo >= 1.0].tolist()),
                )
            )
        v = sol.values
        idx = np.flatnonzero(_fractional(v))
        if not idx.size:
            frame.offer(v >= 1.0 - INTEGRALITY_EPS)
            continue
        branch = idx[np.abs(v[idx] - 0.5).argmin()]
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
            child = lp_solve(problem.with_bounds(c_lo, c_hi), start if fix_value else start.copy())
            pivots += child.pivots
            if child.status == "infeasible":
                continue
            rounded = frame.bound(child.objective_value)
            if rounded >= frame.ub:
                continue
            counter += 1
            heapq.heappush(
                heap,
                (rounded, neg_depth - 1, child.objective_value, counter, c_lo, c_hi, child),
            )
        if not certified:
            break
    if stats is not None:
        stats["nodes"] = node_log
        stats["pivots"] = pivots
        frame.record(stats)
    return ExactResult(frame.best, frame.ub, certified, lp_solves)
