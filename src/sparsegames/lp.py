"""Linear-programming engine: relaxation builder, bounded dual simplex,
and the repetitive rounding heuristic.

The relaxation has one [0,1] variable per position of the pruned winning
game.  A feasible 0/1 point is exactly the indicator of a position set
containing init that is closed under player-1 moves and offers every
player-0 member an allowed successor inside the set, so minimizing the
player-0 mass lower-bounds the minimum strategy density.  The
constraints are the :func:`support_rows`, shared with ``sat.py``.

The solver is a dense bounded dual simplex.  Its columns are the n
structural variables and one surplus per row (``rows @ x - s = rhs``,
``s >= 0``); the surplus columns start basic, so the m x (n + m) tableau
starts as ``[-rows | I]`` and there is no phase 1.  Every variable is
boxed, so starting each at the bound its cost prefers makes the start
dual feasible for any bounds, and the same loop solves the root, every
branch-and-bound child and every rounding round.  The pivot rule is
Bland's over the reversed column order: the largest-index bound-violating
basic variable leaves, and the smallest dual ratio enters, the largest
index on ties.  The tie rule is what keeps the trap roots integral: with
smallest-index ties the loop ends on fractional optimal vertices of
``gen_adversarial`` roots, where ``ilp`` can no longer certify at the
root.

A pivot does not touch all of the tableau: picking the leaving row and
the entering column are a few vector operations over the rows and
columns, and the rank-1 update rewrites only the rows where the entering
column is nonzero: under 1% of them on the roots of ``gen_chain`` and
``gen_adversarial``, about half on unplanted random set covers.  One
pivot therefore costs about that column's nonzeros times the tableau
width.  The root LP of ``gen_adversarial(64)`` (833 rows, 769 pruned
positions) takes 320 pivots in 0.06-0.07 s on a 2-core host with CPython
3.11 and numpy 2.4.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleAfterFixError, TimeoutExceededError
from .game import (
    MostPermissiveStrategy,
    PositionalStrategy,
    SafetyGame,
    decode_support,
    pruned_context,
)

logger = logging.getLogger(__name__)

#: treat |v| <= EPS as 0 and |v - 1| <= EPS as 1 when rounding LP values
INTEGRALITY_EPS = 1e-9

_FEAS_TOL = 1e-7
_PIVOT_TOL = 1e-9


@dataclass(eq=False)
class LpProblem:
    """Minimize ``objective @ x`` subject to ``rows @ x >= rhs`` and
    ``lo <= x <= hi`` with all bounds inside [0, 1]."""

    var_names: tuple[str, ...]
    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    row_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        n = len(self.var_names)
        self.objective = np.asarray(self.objective, dtype=float)
        self.rows = np.asarray(self.rows, dtype=float).reshape(-1, n)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.objective.shape != (n,):
            raise ValueError("objective length does not match variables")
        if self.rhs.shape[0] != self.rows.shape[0]:
            raise ValueError("rhs length does not match rows")
        if self.lo.shape != (n,) or self.hi.shape != (n,):
            raise ValueError("bound vectors do not match variables")
        if not self.row_labels:
            self.row_labels = tuple(f"c{i}" for i in range(self.rows.shape[0]))
        # Written so that every comparison must hold: NaN fails them all.
        if not ((0.0 <= self.lo) & (self.lo <= self.hi) & (self.hi <= 1.0)).all():
            raise ValueError("bounds must satisfy 0 <= lo <= hi <= 1")

    def with_bounds(self, lo: np.ndarray, hi: np.ndarray) -> "LpProblem":
        return LpProblem(
            self.var_names, self.objective, self.rows, self.rhs,
            lo.copy(), hi.copy(), self.row_labels,
        )


@dataclass(eq=False)
class LpSolution:
    status: str  # "optimal" | "infeasible"
    values: np.ndarray | None = None
    objective_value: float = 0.0
    #: dual simplex pivots, up to the optimum or to the row that proves
    #: the LP infeasible
    pivots: int = 0


def support_rows(
    game: SafetyGame, mp: MostPermissiveStrategy
) -> list[tuple[int, tuple[int, ...]]]:
    """The constraints of a support set, shared by the LP and SAT
    encodings: a support containing position ``v`` contains one of
    ``targets`` for every pair ``(v, targets)``.

    The keys of ``mp.moves`` (the winning positions) are covered in index
    order.  A player-0 position gives one pair with the targets of its
    allowed actions, duplicates kept; a player-1 position gives one
    ``(v, (d,))`` pair per distinct successor, in index order.
    """
    rows: list[tuple[int, tuple[int, ...]]] = []
    for v, edges in mp.moves.items():
        if game.pos_owner[v] == 0:
            rows.append((v, tuple([d for _, d in edges])))
        else:
            rows += [(v, (d,)) for d in sorted({d for _, d in edges})]
    return rows


def build_relaxation(game: SafetyGame, mp: MostPermissiveStrategy) -> LpProblem:
    """Real relaxation of minimum-density extraction over a pruned game.

    One variable per position, bounds [0,1] with init fixed to 1, an
    explicit ``init >= 1`` row, and one ``-v + sum(targets) >= 0`` row per
    :func:`support_rows` pair: a flow row per player-0 position (duplicate
    targets accumulate coefficients) and a row per (player-1 position,
    distinct successor) pair.
    """
    if len(mp.moves) != len(game.pos_names):
        raise ValueError("build_relaxation expects a game pruned to its winning part")
    names = game.pos_names
    n = len(names)
    objective = np.array(
        [1.0 if o == 0 else 0.0 for o in game.pos_owner], dtype=float
    )
    pairs = support_rows(game, mp)
    rows = np.zeros((len(pairs) + 1, n))
    rows[0, game.init_index] = 1.0
    rhs = np.zeros(len(pairs) + 1)
    rhs[0] = 1.0
    labels = ["init"]
    for row, (v, targets) in zip(rows[1:], pairs):
        row[v] = -1.0
        for d in targets:
            row[d] += 1.0
        if game.pos_owner[v] == 0:
            labels.append(f"flow_{names[v]}")
        else:
            labels.append(f"succ_{names[v]}_{names[targets[0]]}")

    lo = np.zeros(n)
    hi = np.ones(n)
    lo[game.init_index] = 1.0
    return LpProblem(
        var_names=names,
        objective=objective,
        rows=rows,
        rhs=rhs,
        lo=lo,
        hi=hi,
        row_labels=tuple(labels),
    )


def _dual_loop(T, beta, d, basis, upper, lo_ext, hi_ext, max_pivots) -> tuple[int, bool]:
    """Run bounded dual simplex pivots from a dual feasible basis until
    every basic variable lies within its bounds.  Returns how many pivots
    ran and whether the LP is feasible.

    The leaving variable is the basic variable outside its bounds with the
    largest index.  The entering column is, among the nonbasic columns
    that move it toward the violated bound, the one with the smallest dual
    ratio |d_j / T_rj|, the largest index on ties: Bland's rule over the
    reversed column order, so the pivots are deterministic and cannot
    cycle.  A leaving row with no such column proves the LP infeasible.
    Basic columns are exact unit vectors, so in the leaving row only the
    leaving variable's own column is nonzero among them.

    Each pivot costs a few vector operations over the row and column
    widths plus the rank-1 update of the rows where the entering column is
    nonzero.  Every tableau entry that changes goes through the same
    ``t - c * r`` as in a full-height update, and subtracting ``0 * r``
    from a skipped row could flip only the sign of a zero.
    """
    movable = hi_ext > lo_ext
    for pivots in range(max_pivots):
        lo_b = lo_ext[basis]
        hi_b = hi_ext[basis]
        low = beta < lo_b - _FEAS_TOL
        bad = np.flatnonzero(low | (beta > hi_b + _FEAS_TOL))
        if not bad.size:
            return pivots, True
        r = bad[basis[bad].argmax()]
        leaving = basis[r]
        target = lo_b[r] if low[r] else hi_b[r]
        alpha = T[r]
        # How fast the leaving variable moves toward its target as each
        # nonbasic variable moves off its bound into its box; it moves by
        # -alpha_j per unit that x_j rises.
        gain = np.where(upper == low[r], alpha, -alpha)
        eligible = movable & (gain > _PIVOT_TOL)
        eligible[leaving] = False
        cols = np.flatnonzero(eligible)
        if not cols.size:
            return pivots, False
        ratios = np.abs(d[cols] / alpha[cols])
        t = ratios.min()
        enter = cols[np.flatnonzero(ratios <= t + 1e-12 * (1.0 + t))[-1]]
        piv = alpha[enter]
        step = (beta[r] - target) / piv
        enter_val = (hi_ext[enter] if upper[enter] else lo_ext[enter]) + step
        beta -= T[:, enter] * step
        upper[leaving] = not low[r]
        row = T[r] / piv
        T[r] = row
        colv = T[:, enter].copy()
        colv[r] = 0.0
        nz = np.flatnonzero(colv)
        T[nz] -= np.outer(colv[nz], row)
        d -= d[enter] * row
        basis[r] = enter
        beta[r] = enter_val
    raise RuntimeError("simplex pivot budget exhausted")


def lp_solve(problem: LpProblem) -> LpSolution:
    """Deterministic bounded dual simplex from the surplus basis,
    returning a vertex optimum or infeasibility and the pivot count."""
    n = len(problem.var_names)
    m = problem.rows.shape[0]
    lo, hi, c = problem.lo, problem.hi, problem.objective
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("lp_solve needs finite bounds")
    # Columns: the n structural variables, then one surplus per row, with
    # rows @ x - s = rhs and s >= 0.  The surplus basis has the tableau
    # [-rows | I].  Each structural variable starts at the bound its cost
    # prefers, so every reduced cost is dual feasible whatever the bounds.
    T = np.zeros((m, n + m))
    np.negative(problem.rows, out=T[:, :n])
    np.fill_diagonal(T[:, n:], 1.0)
    upper = np.zeros(n + m, dtype=bool)
    upper[:n] = c < 0.0
    beta = problem.rows @ np.where(upper[:n], hi, lo) - problem.rhs
    d = np.concatenate([c, np.zeros(m)])
    basis = np.arange(n, n + m)
    lo_ext = np.concatenate([lo, np.zeros(m)])
    hi_ext = np.concatenate([hi, np.full(m, np.inf)])
    pivots, feasible = _dual_loop(
        T, beta, d, basis, upper, lo_ext, hi_ext, 20000 + 200 * (m + n)
    )
    if not feasible:
        return LpSolution("infeasible", pivots=pivots)
    values = np.where(upper, hi_ext, lo_ext)
    values[basis] = beta
    x = np.clip(values[:n], lo, hi)
    return LpSolution("optimal", x, float(c @ x), pivots)


def format_lp(problem: LpProblem) -> str:
    """Debug dump in a conventional text LP layout (objective, rows,
    bounds), for cross-checking against external solvers by hand."""
    lines = ["Minimize", " obj: " + _linear_expr(problem.objective, problem.var_names)]
    lines.append("Subject To")
    for label, row, b in zip(problem.row_labels, problem.rows, problem.rhs):
        lines.append(f" {label}: {_linear_expr(row, problem.var_names)} >= {b:g}")
    lines.append("Bounds")
    for name, l, h in zip(problem.var_names, problem.lo, problem.hi):
        lines.append(f" {l:g} <= {name} <= {h:g}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _linear_expr(coefs: np.ndarray, names: tuple[str, ...]) -> str:
    parts: list[str] = []
    for coef, name in zip(coefs, names):
        if coef == 0:
            continue
        mag = abs(coef)
        coef_txt = "" if abs(mag - 1.0) < 1e-12 else f"{mag:g} "
        if not parts:
            parts.append(f"{'- ' if coef < 0 else ''}{coef_txt}{name}")
        else:
            parts.append(f"{'-' if coef < 0 else '+'} {coef_txt}{name}")
    return " ".join(parts) if parts else "0"


def replp_extract(
    game: SafetyGame,
    mp: MostPermissiveStrategy,
    *,
    deadline: float | None = None,
    stats: dict | None = None,
) -> PositionalStrategy:
    """Iterated LP rounding.

    Solve the relaxation; fix every 0-valued variable to 0 and every
    1-valued variable to 1; additionally fix one variable attaining the
    largest non-1 value to 1 (smallest index on ties); repeat until the
    solution is integral, then decode.  Each round turns at least one
    fractional variable into a fixed 1, so the loop runs at most once per
    position.  If a round's zero-fixings make the LP infeasible the round
    is retried without them (this is recorded); feasibility with the
    upward fixings alone always holds because the all-ones point over the
    winning region satisfies every constraint.  A ``stats`` dict receives
    ``rounds``, ``zero_fix_retries``, ``fixed_sizes`` (zero-fixed and
    one-fixed counts per round) and ``pivots``, the simplex pivots of
    every LP solve, retried rounds included.
    """
    pruned, mp2 = pruned_context(game, mp)
    problem = build_relaxation(pruned, mp2)
    n = len(problem.var_names)
    lo = problem.lo.copy()
    hi = problem.hi.copy()
    eps = INTEGRALITY_EPS
    pending_zero: list[int] | None = None
    rounds = 0
    retries = 0
    pivots = 0
    fixed_sizes: list[tuple[int, int]] = []
    for _ in range(n + 2):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutExceededError("replp deadline expired")
        sol = lp_solve(problem.with_bounds(lo, hi))
        pivots += sol.pivots
        if sol.status == "infeasible":
            if pending_zero:
                for i in pending_zero:
                    hi[i] = 1.0
                retries += 1
                logger.warning(
                    "replp round became infeasible; retrying without %d zero-fixings",
                    len(pending_zero),
                )
                pending_zero = None
                continue
            raise InfeasibleAfterFixError(
                "LP infeasible after a fixing round without zero-fixings"
            )
        rounds += 1
        v = sol.values
        fractional = [i for i in range(n) if eps < v[i] < 1.0 - eps]
        if not fractional:
            if stats is not None:
                stats["rounds"] = rounds
                stats["zero_fix_retries"] = retries
                stats["fixed_sizes"] = fixed_sizes
                stats["pivots"] = pivots
            return decode_support(pruned, v >= 1.0 - eps)
        pending_zero = [i for i in range(n) if v[i] <= eps and hi[i] > 0.0]
        for i in pending_zero:
            hi[i] = 0.0
        for i in range(n):
            if v[i] >= 1.0 - eps:
                lo[i] = 1.0
        max_frac = max(v[i] for i in fractional)
        target = min(i for i in fractional if v[i] >= max_frac - eps)
        lo[target] = 1.0
        fixed_sizes.append(
            (int(np.sum(hi <= 0.0)), int(np.sum(lo >= 1.0)))
        )
    raise AssertionError("replp failed to converge within the round bound")
