"""Exact minimum-density extraction by branch-and-bound over the LP
relaxation.

Best-first search on nodes carrying variable fixings.  Each node's bound
is its LP optimum; a node is pruned once the bound rounded up reaches
the incumbent density.  Branching picks the most fractional variable
(fractional part closest to one half, smallest index on ties) and
explores the fix-to-0 child first.  The incumbent starts from the greedy
local-search heuristic and is always a valid winning strategy.  When the
node budget or the deadline runs out it is returned uncertified.

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

from .game import MostPermissiveStrategy, PositionalStrategy, SafetyGame
from .heuristics import smart_random_extract
from .lp import (
    INTEGRALITY_EPS,
    Tableau,
    build_relaxation,
    decode_support,
    lp_solve,
    pruned_context,
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


def _ceil_eps(x: float) -> int:
    return math.ceil(x - INTEGRALITY_EPS)


class _Frame:
    """The pruned game, its relaxation, its root LP solved cold and the
    root's optimal ``tableau``, the lower bound ``lb`` (the root optimum
    rounded up), and the incumbent of both exact engines:
    the warm start, replaced by every strictly sparser decoded support.  A
    decoded strategy names the player-0 positions its walk reaches in the
    pruned game, which keeps every edge of a reached player-1 position, so
    its density in ``game`` is its number of choices.

    An integral root is offered at once: its support has at most ``lb``
    player-0 positions, so it certifies ``ub == lb`` before any search.
    Integrality is judged on the values, since a fractional root can have
    an integral objective.  ``deadline`` bounds the warm start.
    """

    def __init__(
        self,
        game: SafetyGame,
        mp: MostPermissiveStrategy,
        warm_seed: int,
        deadline: float | None,
    ):
        self.pruned, self.mp = pruned_context(game, mp)
        self.problem = build_relaxation(self.pruned, self.mp)
        self.best = smart_random_extract(
            game, mp.winning, warm_seed, deadline=deadline
        )
        self.ub = len(self.best.choice)
        self.tableau = Tableau.surplus(self.problem)
        self.root = lp_solve(self.problem, self.tableau)
        if self.root.status == "infeasible":
            raise AssertionError("relaxation of a winnable game cannot be infeasible")
        self.lb = _ceil_eps(self.root.objective_value)
        v = self.root.values
        if ((v <= INTEGRALITY_EPS) | (v >= 1.0 - INTEGRALITY_EPS)).all():
            self.offer(v >= 1.0 - INTEGRALITY_EPS)

    def offer(self, flags) -> None:
        """Decode a support of the pruned game, given as per-position
        flags, and keep it when it is strictly sparser."""
        candidate = decode_support(self.pruned, flags)
        if len(candidate.choice) < self.ub:
            self.best, self.ub = candidate, len(candidate.choice)

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

    The root LP and the warm-start incumbent come from :class:`_Frame`;
    every integral node's support is offered to it, the root's by the
    frame itself, so an integral root ends the search before any node is
    expanded.  Each child LP starts from a copy of its parent's optimal
    tableau.  ``work`` counts LP solves, the root included.  When the
    node budget or the ``deadline`` runs out before a child LP, the
    incumbent is returned with ``certified=False``; only the warm start
    raises :class:`TimeoutExceededError`, before there is an incumbent.
    When a ``stats`` dict is supplied, every expanded node is recorded
    under ``"nodes"`` as (bound, zero-fixed variable indices, one-fixed
    variable indices), and the simplex pivots of every LP solve under
    ``"pivots"``.
    """
    frame = _Frame(game, mp, warm_seed, deadline)
    problem = frame.problem
    n = len(problem.var_names)
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
        if _ceil_eps(bound) >= frame.ub:
            break  # best-first: every remaining node is at least as bad
        if node_log is not None:
            node_log.append(
                (
                    bound,
                    frozenset(int(i) for i in np.nonzero(hi <= 0.0)[0]),
                    frozenset(int(i) for i in np.nonzero(lo >= 1.0)[0]),
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
            if _ceil_eps(child.objective_value) >= frame.ub:
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
    return frame.result(certified, lp_solves)
