"""Linear-programming engine: relaxation builder, bounded-variable
simplex, and the repetitive rounding heuristic.

The relaxation has one [0,1] variable per position of the pruned winning
game.  A feasible 0/1 point is exactly the indicator of a position set
containing init that is closed under player-1 moves and offers every
player-0 member an allowed successor inside the set, so minimizing the
player-0 mass lower-bounds the minimum strategy density.  The
constraints are the :func:`support_rows`, shared with ``sat.py``.

The solver is a dense two-phase primal simplex with variable bounds and
Bland's rule, which makes it deterministic and cycle-free.  The tableau
is dense, m x (n + 2m) floats for m rows and n variables, so its memory
grows quadratically.  A pivot does not touch all of it: picking the
entering column and the ratio test are a few vector operations over the
columns and rows, and the rank-1 update rewrites only the rows where the
entering column is nonzero, which on the relaxations here is 1-3.5% of
them.  One pivot therefore costs about that column's nonzeros times the
tableau width.  The root LP of ``gen_adversarial(64)`` (833 rows, 769
pruned positions) solves in 0.36-0.44 s on a 2-core host with CPython
3.11 and numpy 2.4, where a full-height update took 12-18 s on the same
host.
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
        if np.any(self.lo < -0.0) or np.any(self.hi > 1.0) or np.any(self.lo > self.hi):
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
    #: simplex pivots (basis changes plus bound flips) in phase 1 and
    #: phase 2; an infeasible result stops after phase 1
    pivots: tuple[int, int] = (0, 0)


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


_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2


def _pivot_loop(T, beta, d, basis, status, lo_ext, hi_ext, val, max_pivots) -> int:
    """Run primal simplex pivots until optimal and return how many ran
    (basis changes plus bound flips).  Bland's rule picks the
    smallest-index entering column and, among the tied leaving rows, the
    one whose basic variable has the smallest index (anti-cycling).

    Each pivot costs a few vector operations over the row and column
    widths plus the rank-1 update of the rows where the entering column is
    nonzero.  The pivots are those of a scan over every column and a
    full-height update: the first eligible column of the mask is the
    first column such a scan accepts; rows with |ci| <= tol have an
    infinite ratio, so the ratio test over the others finds the same
    minimum and ties; and every tableau entry that changes goes through
    the same ``t - c * r``, while subtracting ``0 * r`` from a skipped row
    could flip only the sign of a zero.  ``beta`` is still updated at full
    width, so rows with 0 < |ci| <= tol move exactly as before.
    """
    tol = _PIVOT_TOL
    movable = hi_ext - lo_ext > 0.0  # the bounds are fixed within a phase
    for pivots in range(max_pivots):
        eligible = movable & (
            ((status == _AT_LOWER) & (d < -tol)) | ((status == _AT_UPPER) & (d > tol))
        )
        enter = int(eligible.argmax())
        if not eligible[enter]:
            return pivots
        direction = 1.0 if status[enter] == _AT_LOWER else -1.0
        col = T[:, enter]
        ci = direction * col
        act = np.flatnonzero(np.abs(ci) > tol)
        c_act = ci[act]
        b_act = beta[act]
        basis_act = basis[act]
        ratios = np.maximum(
            np.where(
                c_act > 0.0,
                (b_act - lo_ext[basis_act]) / c_act,
                (hi_ext[basis_act] - b_act) / -c_act,
            ),
            0.0,
        )
        min_ratio = ratios.min() if act.size else np.inf
        flip_cap = hi_ext[enter] - lo_ext[enter]
        t_star = min(min_ratio, flip_cap)
        if not np.isfinite(t_star):
            raise RuntimeError("LP is unbounded; this cannot happen with [0,1] bounds")
        tie = t_star + 1e-12 * (1.0 + abs(t_star))
        if flip_cap <= tie:
            # Bound flip: the entering variable crosses to its other bound.
            beta -= ci * flip_cap
            if status[enter] == _AT_LOWER:
                status[enter] = _AT_UPPER
                val[enter] = hi_ext[enter]
            else:
                status[enter] = _AT_LOWER
                val[enter] = lo_ext[enter]
            continue
        candidates = act[ratios <= tie]
        leave_row = candidates[basis[candidates].argmin()]
        piv = col[leave_row]
        leaving = basis[leave_row]
        new_enter_val = val[enter] + direction * t_star
        beta -= ci * t_star
        if ci[leave_row] > 0:
            status[leaving] = _AT_LOWER
            val[leaving] = lo_ext[leaving]
        else:
            status[leaving] = _AT_UPPER
            val[leaving] = hi_ext[leaving]
        row = T[leave_row] / piv
        T[leave_row] = row
        colv = T[:, enter].copy()
        colv[leave_row] = 0.0
        nz = np.flatnonzero(colv)
        T[nz] -= np.outer(colv[nz], row)
        d -= d[enter] * row
        basis[leave_row] = enter
        status[enter] = _BASIC
        beta[leave_row] = new_enter_val
    raise RuntimeError("simplex pivot budget exhausted")


def lp_solve(problem: LpProblem) -> LpSolution:
    """Deterministic two-phase simplex returning a vertex optimum or
    infeasibility, with the pivot count of each phase."""
    n = len(problem.var_names)
    m = problem.rows.shape[0]
    lo = problem.lo
    hi = problem.hi
    if m == 0:
        x = np.where(problem.objective > 0, lo, hi)
        return LpSolution("optimal", x, float(problem.objective @ x))

    # Columns: structural | surplus (one per row) | artificial (one per row).
    num_cols = n + 2 * m
    A_ext = np.zeros((m, num_cols))
    A_ext[:, :n] = problem.rows
    A_ext[:, n : n + m] = -np.eye(m)
    x0 = lo.copy()
    residual = problem.rhs - problem.rows @ x0
    sigma = np.where(residual >= 0, 1.0, -1.0)
    A_ext[:, n + m :] = np.diag(sigma)

    lo_ext = np.concatenate([lo, np.zeros(m), np.zeros(m)])
    hi_ext = np.concatenate([hi, np.full(m, np.inf), np.full(m, np.inf)])
    T = A_ext * sigma[:, None]
    beta = np.abs(residual).astype(float)
    basis = np.arange(n + m, num_cols)
    status = np.full(num_cols, _AT_LOWER, dtype=np.int8)
    status[basis] = _BASIC
    val = lo_ext.copy()
    val[n : n + m] = 0.0

    max_pivots = 20000 + 200 * (m + n)

    # Phase 1: minimize the artificial mass.
    c1 = np.zeros(num_cols)
    c1[n + m :] = 1.0
    d = c1 - T.sum(axis=0)
    phase1 = _pivot_loop(T, beta, d, basis, status, lo_ext, hi_ext, val, max_pivots)
    # Artificials leave the basis only at their lower bound 0, so the
    # remaining infeasibility is carried entirely by basic ones.
    infeas = sum(beta[basis >= n + m])
    if infeas > _FEAS_TOL:
        return LpSolution("infeasible", pivots=(phase1, 0))

    # Phase 2: ban artificials and optimize the real objective.
    lo_ext[n + m :] = 0.0
    hi_ext[n + m :] = 0.0
    c2 = np.zeros(num_cols)
    c2[:n] = problem.objective
    d = c2 - c2[basis] @ T
    phase2 = _pivot_loop(T, beta, d, basis, status, lo_ext, hi_ext, val, max_pivots)

    values = val.copy()
    values[basis] = beta
    x = np.clip(values[:n], lo, hi)
    return LpSolution("optimal", x, float(problem.objective @ x), (phase1, phase2))


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
        pivots += sum(sol.pivots)
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
