"""Linear-programming engine: relaxation builder, bounded dual simplex,
the LP front end shared by every LP engine, and the repetitive rounding
heuristic.

The relaxation is over the positions the most-permissive walk from init
visits.  A support is a position set containing init that is closed
under player-1 moves and offers every player-0 member an allowed
successor inside the set.
:class:`ReducedProblem` states these rules as pairs over the free
positions, those that unit propagation does not force into every
support, and ``sat.py`` encodes the same pairs.  The relaxation
(:func:`encode_lp`) has one [0,1] variable per free position, so a
feasible 0/1 point plus the forced positions is exactly a support, and
minimizing the player-0 mass plus the forced player-0 count
lower-bounds the minimum strategy density.  Every LP engine solves it
through :class:`_Frame`, and ``--dump-lp`` writes it.

The solver is a dense bounded dual simplex.  Its columns are the n
structural variables and one surplus per row (``rows @ x - s = rhs``,
``s >= 0``).  A cold solve starts from the surplus basis, whose m x (n + m)
tableau is ``[-rows | I]``, so there is no phase 1; the frame's root and
every later ``replp`` round start there.  A branch-and-bound child
starts from its parent's optimal basis instead (:class:`Tableau`), since
the two differ only in bounds.  Every structural variable is boxed, so
putting each nonbasic one at the bound its reduced cost prefers makes
any start dual feasible for any bounds, and one loop solves from every
start.  The pivot rule is Bland's over the reversed column order: the
largest-index bound-violating basic variable leaves, and the smallest
dual ratio enters, the largest index on ties.  The tie rule is what
keeps the trap roots integral: with smallest-index ties the loop ends
on fractional optimal vertices of ``gen_adversarial`` roots, where
``ilp`` can no longer certify at the root.

A pivot does not touch all of the tableau.  Picking the leaving row and
the entering column are a few vector operations over the rows and
columns: the loop keeps each row's tolerance-shifted bounds and each
column's direction off its bound, and updates one entry of each per
pivot instead of gathering them again.  The rank-1 update rewrites only
the rows where the entering column is nonzero: under 1% of them on the
roots of ``gen_chain`` and ``gen_adversarial``, about half on unplanted
random set covers.  One pivot therefore costs about that column's
nonzeros times the tableau width, plus a few dozen numpy calls whose
fixed cost dominates on small tableaux.  The frame's root LP of
``gen_adversarial(64)`` (576 rows, 704 free positions) takes 256 pivots
in 0.013-0.015 s on a 2-core host with CPython 3.11 and numpy 2.4.
Every pivot and every product on a tableau is elementwise numpy, with no
BLAS or LAPACK call, so the pivots and the results do not depend on how
many threads such a library runs.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import LpTooLargeError, TimeoutExceededError
from .game import (
    MostPermissiveStrategy,
    PositionalStrategy,
    SafetyGame,
    decode_support,
    density,
    pruned_context,  # kept importable here, where its callers read it
    reach,
)

#: the largest dense tableau, m x (n + m) float64 entries, that
#: :func:`encode_lp` lets an LP engine allocate
LP_TABLEAU_BYTES = 256 << 20

#: treat |v| <= EPS as 0 and |v - 1| <= EPS as 1 when rounding LP values
INTEGRALITY_EPS = 1e-9

_FEAS_TOL = 1e-7
_PIVOT_TOL = 1e-9
#: a reduced cost this close to 0 leaves a start's bound flag as it is:
#: rounding leaves costs of about 1e-16 where they are 0, and moving such a
#: variable to its other bound takes the start off its parent's vertex
#: (1,474 pivots instead of 1,006 for ``ilp`` on a 40-element set cover)
_COST_TOL = 1e-12


def _fractional(values: np.ndarray) -> np.ndarray:
    """Mask of the LP values that round to neither 0 nor 1."""
    return (values > INTEGRALITY_EPS) & (values < 1.0 - INTEGRALITY_EPS)


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

    def __post_init__(self):
        n = len(self.var_names)
        self.objective = np.asarray(self.objective, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.rows = np.asarray(self.rows, dtype=float).reshape(len(self.rhs), n)
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.objective.shape != (n,):
            raise ValueError("objective length does not match variables")
        if self.lo.shape != (n,) or self.hi.shape != (n,):
            raise ValueError("bound vectors do not match variables")
        # Written so that every comparison must hold: NaN fails them all.
        if not ((0.0 <= self.lo) & (self.lo <= self.hi) & (self.hi <= 1.0)).all():
            raise ValueError("bounds must satisfy 0 <= lo <= hi <= 1")
        if not all(np.isfinite(a).all() for a in (self.objective, self.rows, self.rhs)):
            raise ValueError("objective, rows and rhs must be finite")

    def with_bounds(self, lo: np.ndarray, hi: np.ndarray) -> "LpProblem":
        return LpProblem(
            self.var_names, self.objective, self.rows, self.rhs, lo.copy(), hi.copy()
        )


@dataclass(eq=False)
class LpSolution:
    status: str  # "optimal" | "infeasible"
    values: np.ndarray | None = None
    objective_value: float = 0.0
    #: dual simplex pivots, up to the optimum or to the row that proves
    #: the LP infeasible
    pivots: int = 0
    #: the optimal basis header: the basic column of each row (m ints;
    #: columns below n are the variables, the others one surplus per row)
    #: and which columns sit at their upper bound (n + m bools, read where
    #: nonbasic); None when infeasible.  :meth:`Tableau.rebuilt` turns it
    #: back into a start.
    basis: np.ndarray | None = None
    upper: np.ndarray | None = None


@dataclass(eq=False)
class ReducedProblem:
    """The reduced problem of a game (:func:`reduced_problem`), which
    every LP engine solves and the dumps write.

    Every support contains the ``forced`` positions (flags by position),
    the forced closure that the game's ``fixpoint`` flags; unit
    propagation of the pairs adds them.  ``offset`` counts the forced
    player-0 ones.  The other visited positions, ``free`` in index order,
    are the columns, and ``player0`` flags the columns player 0 owns.

    The pairs are CSR int arrays: pair i has the source column
    ``source[i]``, -1 for a forced source, and the target columns
    ``targets[indptr[i]:indptr[i + 1]]``.  A support holding the source
    (every support, for -1) holds one of the targets.  Visited positions
    come in index order: a player-0 one gives one pair with the targets of
    its allowed actions, duplicates kept, a player-1 one a pair per
    distinct successor in index order.  A pair with a forced target, or a
    free position's pair whose only target is itself, always holds and is gone.
    """

    forced: np.ndarray
    free: np.ndarray
    offset: int
    player0: np.ndarray
    source: np.ndarray
    indptr: np.ndarray
    targets: np.ndarray


def reduced_problem(game: SafetyGame, mp: MostPermissiveStrategy) -> ReducedProblem:
    """The :class:`ReducedProblem` of ``game`` over the positions of the
    :func:`reach` walk that takes the moves of ``mp``; ``ValueError`` when
    the walk visits a position that ``mp.moves`` does not key."""
    visited = sorted(reach(game, mp.moves.get)[0])
    doomed, owner = game.fixpoint.doomed, game.pos_owner
    free = [v for v in visited if not doomed[v]]
    column = dict(zip(free, range(len(free))))
    source, indptr, targets = [], [0], []
    for v in visited:
        edges = mp.moves.get(v)
        if edges is None:
            raise ValueError(f"the walk reaches {game.pos_names[v]!r}, outside the winning region")
        if owner[v] == 0:
            pairs = [[column.get(d, -1) for _, d in edges]]
        else:
            pairs = [[column.get(d, -1)] for d in sorted({d for _, d in edges})]
        j = column.get(v, -1)
        for t in pairs:
            if -1 not in t and t != [j]:
                source.append(j)
                targets += t
                indptr.append(len(targets))
    return ReducedProblem(
        np.array(doomed, dtype=bool), np.array(free, dtype=np.intp),
        sum(1 for v, d in enumerate(doomed) if d and not owner[v]),
        np.array([not owner[v] for v in free], dtype=bool),
        *(np.array(a, dtype=np.intp) for a in (source, indptr, targets)),
    )


def encode_lp(game: SafetyGame, reduced: ReducedProblem) -> LpProblem:
    """The real relaxation of a reduced problem of ``game``: a [0,1]
    variable per free position, cost 1 for player 0, and a row per pair,
    ``-x_source + sum(targets) >= 0`` or, for a forced source,
    ``sum(targets) >= 1``; duplicate targets accumulate coefficients.
    Raises :class:`LpTooLargeError`, before it allocates, when the m x (n
    + m) tableau would exceed ``LP_TABLEAU_BYTES``."""
    m, n = len(reduced.source), len(reduced.free)
    if m * (n + m) * 8 > LP_TABLEAU_BYTES:
        raise LpTooLargeError(
            f"the reduced LP has {m} rows and {n} variables; its dense tableau"
            f" needs {m * (n + m) * 8} bytes, over the {LP_TABLEAU_BYTES}-byte limit"
        )
    rows = np.zeros((m, n))
    sourced = np.flatnonzero(reduced.source >= 0)
    rows[sourced, reduced.source[sourced]] = -1.0
    pair = np.repeat(np.arange(m), np.diff(reduced.indptr))
    np.add.at(rows, (pair, reduced.targets), 1.0)
    return LpProblem(
        tuple([game.pos_names[v] for v in reduced.free.tolist()]),
        reduced.player0, rows, reduced.source < 0, np.zeros(n), np.ones(n),
    )


def build_relaxation(game: SafetyGame, mp: MostPermissiveStrategy) -> LpProblem:
    """:func:`encode_lp` of the game's :func:`reduced_problem` under ``mp``."""
    return encode_lp(game, reduced_problem(game, mp))


@dataclass(eq=False)
class Tableau:
    """A basis header with its tableau, the start of an :func:`lp_solve`.

    ``T`` is the m x (n + m) tableau of ``basis`` (the basic column of
    each row) over the columns of ``rows @ x - s = rhs``, and ``d`` holds
    the reduced costs of the objective.  Both depend only on the rows, the
    objective and the basis, not on the bounds, so one tableau starts any
    problem that differs from its own only in bounds.  ``upper`` flags the
    nonbasic columns at their upper bound; a solve keeps these flags only
    where a reduced cost of 0 leaves the choice open.
    """

    T: np.ndarray
    d: np.ndarray
    basis: np.ndarray
    upper: np.ndarray

    @classmethod
    def surplus(cls, problem: LpProblem) -> "Tableau":
        """The surplus basis: every surplus column basic, so the tableau is
        ``[-rows | I]`` and the reduced costs are the objective."""
        n = len(problem.var_names)
        m = problem.rows.shape[0]
        T = np.zeros((m, n + m))
        np.negative(problem.rows, out=T[:, :n])
        np.fill_diagonal(T[:, n:], 1.0)
        d = np.concatenate([problem.objective, np.zeros(m)])
        return cls(T, d, np.arange(n, n + m), np.zeros(n + m, dtype=bool))

    def copy(self) -> "Tableau":
        return Tableau(self.T.copy(), self.d.copy(), self.basis.copy(), self.upper.copy())

    def rebuilt(self, basis: np.ndarray, upper: np.ndarray) -> "Tableau":
        """A copy pivoted to the basis header (``basis``, ``upper``).

        Only the columns basic in the header but not here enter, in index
        order, each in the row with the largest magnitude in its column
        among the rows whose basic column the header does not keep (the
        first such row on ties).  Some such entry is nonzero whenever the header's
        columns are independent.  The pivots are the elementwise rank-1
        updates of :func:`_pivot`, so the result does not depend on how a
        linear-algebra library splits its work.  The rows come out in this
        tableau's order, not the header's.
        """
        T, d, basis_now = self.T.copy(), self.d.copy(), self.basis.copy()
        wanted = np.zeros(T.shape[1], dtype=bool)
        wanted[basis] = True
        present = np.zeros(T.shape[1], dtype=bool)
        present[basis_now] = True
        open_rows = ~wanted[basis_now]
        for enter in np.flatnonzero(wanted & ~present):
            rows = np.flatnonzero(open_rows)
            r = rows[np.abs(T[rows, enter]).argmax()]
            if abs(T[r, enter]) <= _PIVOT_TOL:
                raise ValueError("basis header is singular")
            _pivot(T, d, basis_now, r, enter, T[:, enter].copy())
            open_rows[r] = False
        return Tableau(T, d, basis_now, upper.copy())


def _pivot(T, d, basis, r, enter, col) -> None:
    """Make column ``enter`` basic in row ``r``: divide the row by its
    pivot and subtract multiples of it from the rows where the column is
    nonzero and from the reduced costs.  ``col`` is a copy of the column
    taken before the pivot; it is changed.  Every tableau entry that
    changes goes through the same ``t - c * r`` as in a full-height
    update, and subtracting ``0 * r`` from a skipped row could flip only
    the sign of a zero."""
    row = T[r] / T[r, enter]
    T[r] = row
    col[r] = 0.0
    nz = col.nonzero()[0]
    T[nz] -= col[nz, None] * row
    d -= d[enter] * row
    basis[r] = enter


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

    The bounds of each row's basic variable, shifted by the feasibility
    tolerance, and the direction each column can move off its bound (+1
    down from its upper bound, -1 up from its lower one, 0 when its box
    is a point) are kept per row and per column and changed only where a
    pivot changes them.  Each pivot then costs a few vector operations
    over the row and column widths plus the rank-1 update of
    :func:`_pivot`.
    """
    lo_tol = lo_ext[basis] - _FEAS_TOL
    hi_tol = hi_ext[basis] + _FEAS_TOL
    movable = hi_ext > lo_ext
    sign = np.where(upper, 1.0, -1.0) * movable
    for pivots in range(max_pivots):
        low = beta < lo_tol
        bad = (low | (beta > hi_tol)).nonzero()[0]
        if not bad.size:
            return pivots, True
        r = bad[basis[bad].argmax()]
        leaving = basis[r]
        low_r = low[r]
        target = lo_ext[leaving] if low_r else hi_ext[leaving]
        alpha = T[r]
        # How fast the leaving variable moves toward its target as each
        # nonbasic variable moves off its bound into its box; it moves by
        # -alpha_j per unit that x_j rises.  The gain is sign * alpha
        # when the target is the lower bound and its negation otherwise.
        gain = sign * alpha
        eligible = gain > _PIVOT_TOL if low_r else gain < -_PIVOT_TOL
        eligible[leaving] = False
        cols = eligible.nonzero()[0]
        if not cols.size:
            return pivots, False
        ratios = np.abs(d[cols] / alpha[cols])
        t = ratios.min()
        enter = cols[(ratios <= t + 1e-12 * (1.0 + t)).nonzero()[0][-1]]
        step = (beta[r] - target) / alpha[enter]
        enter_val = (hi_ext[enter] if upper[enter] else lo_ext[enter]) + step
        col = T[:, enter].copy()
        beta -= col * step
        upper[leaving] = not low_r
        if movable[leaving]:
            sign[leaving] = -1.0 if low_r else 1.0
        lo_tol[r] = lo_ext[enter] - _FEAS_TOL
        hi_tol[r] = hi_ext[enter] + _FEAS_TOL
        _pivot(T, d, basis, r, enter, col)
        beta[r] = enter_val
    raise RuntimeError("simplex pivot budget exhausted")


def lp_solve(problem: LpProblem, start: Tableau | None = None) -> LpSolution:
    """Deterministic bounded dual simplex, returning a vertex optimum or
    infeasibility, the pivot count and the final basis header.

    It starts from ``start``, a :class:`Tableau` of the problem's rows and
    objective, which it pivots in place to the final basis; without one it
    starts from :meth:`Tableau.surplus`.  Each nonbasic variable with a
    finite box goes to the bound its reduced cost prefers, keeping the
    start's flag where the cost is 0 (within rounding), so every start is
    dual feasible whatever the bounds.  The basic values are then
    recomputed from the bounds.
    """
    n = len(problem.var_names)
    m = problem.rows.shape[0]
    lo, hi, c = problem.lo, problem.hi, problem.objective
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("lp_solve needs finite bounds")
    if start is None:
        start = Tableau.surplus(problem)
    if start.T.shape != (m, n + m):
        raise ValueError("start tableau does not match the problem")
    T, d, basis, upper = start.T, start.d, start.basis, start.upper
    # Columns: the n structural variables, then one surplus per row, with
    # rows @ x - s = rhs and s >= 0; the surplus columns stay at 0 when
    # nonbasic.
    lo_ext = np.concatenate([lo, np.zeros(m)])
    hi_ext = np.concatenate([hi, np.full(m, np.inf)])
    boxed = hi_ext > lo_ext
    boxed[n:] = False
    boxed[basis] = False
    tied = np.abs(d[boxed]) <= _COST_TOL
    upper[boxed] = np.where(tied, upper[boxed], d[boxed] < 0.0)
    x = np.where(upper[:n], hi, lo)
    x[basis[basis < n]] = 0.0
    # The basic values are B^-1 (rhs - rows @ x_N), and the surplus block
    # of T is B^-1 (-I).  einsum sums elementwise, with no BLAS call.
    w = np.einsum("ij,j->i", problem.rows, x) - problem.rhs
    beta = np.einsum("ij,j->i", T[:, n:], w)
    pivots, feasible = _dual_loop(
        T, beta, d, basis, upper, lo_ext, hi_ext, 20000 + 200 * (m + n)
    )
    if not feasible:
        return LpSolution("infeasible", pivots=pivots)
    values = np.where(upper, hi_ext, lo_ext)
    values[basis] = beta
    x = np.clip(values[:n], lo, hi)
    objective = float(np.einsum("i,i->", c, x))
    return LpSolution("optimal", x, objective, pivots, basis.copy(), upper.copy())


def format_lp(problem: LpProblem) -> str:
    """Debug dump in a conventional text LP layout (objective, rows,
    bounds), for cross-checking against external solvers by hand."""
    lines = ["Minimize", " obj: " + _linear_expr(problem.objective, problem.var_names)]
    lines.append("Subject To")
    for i, (row, b) in enumerate(zip(problem.rows, problem.rhs)):
        lines.append(f" c{i}: {_linear_expr(row, problem.var_names)} >= {b:g}")
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


class _Frame:
    """The LP front end of ``replp``, ``ilp`` and ``sat`` on the caller's
    ``game``: its :class:`ReducedProblem` ``reduced`` and that problem's
    LP ``problem`` (:func:`encode_lp`), the root LP solved cold and the
    root's optimal ``tableau``, the lower bound ``lb``, and the incumbent
    of the exact engines: the decoded all-ones support, which flags every
    position of the most-permissive walk and so is always valid, replaced
    by every strictly sparser decoded support.  A decoded strategy is in
    index form on ``game``, so its density is its move count.  The root
    optimum plus the reduced problem's ``offset``, rounded up, is ``lb``.

    An integral root is offered with the first incumbent: its support has
    at most ``lb`` player-0 positions, so it certifies ``ub == lb`` before
    any search.  Integrality is judged on the values, since a fractional
    root can have an integral objective.  The incumbent is decoded on
    first use, so ``replp``, which reads neither it nor ``ub``, decodes
    only the support it returns.

    The frame runs and counts (``solves``) every LP solve of its engine,
    and keeps the engine's ``stats`` dict, or a throwaway one: it writes
    ``forced``, the forced player-0 count, and ``lp_shape``, the reduced
    LP's (rows, variables), when built, and sums every solve's simplex
    pivots, the root's first, in ``pivots``.
    """

    def __init__(self, game: SafetyGame, mp: MostPermissiveStrategy, stats: dict | None = None):
        self.game = game
        self.stats = {} if stats is None else stats
        self.reduced = reduced_problem(game, mp)
        self.problem = encode_lp(game, self.reduced)
        self.stats.update(forced=self.reduced.offset, lp_shape=self.problem.rows.shape, pivots=0)
        self.solves = 0
        self.tableau = Tableau.surplus(self.problem)
        self.root = self.solve(self.problem.lo, self.problem.hi, self.tableau)
        if self.root.status == "infeasible":
            raise AssertionError("relaxation of a winnable game cannot be infeasible")
        self.lb = self.bound(self.root.objective_value)

    @functools.cached_property
    def best(self) -> PositionalStrategy:
        """The incumbent, first the decoded all-ones support, or the
        integral root's decoded support where strictly sparser; each
        :meth:`offer` that is strictly sparser replaces it."""
        best = self.decode(True)
        v = self.root.values
        if not _fractional(v).any():
            root = self.decode(v >= 1.0 - INTEGRALITY_EPS)
            if density(self.game, root) < density(self.game, best):
                best = root
        return best

    @property
    def ub(self) -> int:
        """The incumbent's density, its move count."""
        return density(self.game, self.best)

    def bound(self, objective: float) -> int:
        """The density bound of a reduced objective: plus the reduced
        problem's ``offset``, rounded up."""
        return math.ceil(self.reduced.offset + objective - INTEGRALITY_EPS)

    def decode(self, flags) -> PositionalStrategy:
        """Decode a support given as flags of the free positions, lifted to
        the forced ones."""
        support = self.reduced.forced.copy()
        support[self.reduced.free] = flags
        return decode_support(self.game, support)

    def offer(self, flags) -> None:
        """Decode a support given as flags of the free positions and keep
        it when it is strictly sparser."""
        candidate = self.decode(flags)
        if density(self.game, candidate) < self.ub:
            self.best = candidate

    def solve(self, lo: np.ndarray, hi: np.ndarray, start: Tableau | None = None) -> LpSolution:
        """:func:`lp_solve` of the reduced LP under the bounds ``lo`` and
        ``hi`` from ``start``, counted in ``solves`` and ``pivots``."""
        sol = lp_solve(self.problem.with_bounds(lo, hi), start)
        self.solves += 1
        self.stats["pivots"] += sol.pivots
        return sol


def replp_extract(
    game: SafetyGame,
    mp: MostPermissiveStrategy,
    *,
    deadline: float | None = None,
    stats: dict | None = None,
) -> PositionalStrategy:
    """Iterated LP rounding on the reduced problem of :class:`_Frame`.

    The first round's LP is the frame's root; every later round solves
    the reduced problem cold under the fixings so far.  Each round fixes
    every 0-valued variable to 0 and every 1-valued variable to 1, and
    additionally one variable attaining the largest non-1 value to 1
    (smallest index on ties); once a solution is integral, its support
    with the forced positions added is decoded.  Each round turns at
    least one fractional variable into a fixed 1, so the loop runs at
    most once per free position.  If a round's zero-fixings make the LP
    infeasible the round is retried without them (this is recorded);
    feasibility with the upward fixings alone always holds because the
    all-ones point satisfies every constraint, so an infeasible LP
    without zero-fixings is an ``AssertionError``.  The ``deadline`` is
    read before every LP solve, the root's included, and raises
    :class:`TimeoutExceededError`.  A ``stats`` dict receives the frame's
    keys and ``rounds``, ``zero_fix_retries`` and ``fixed_sizes``
    (zero-fixed and one-fixed free variables per round); every key is set
    when the call starts and filled as the run goes, so a deadline keeps
    what was measured.
    """
    _check_deadline(deadline)
    frame = _Frame(game, mp, stats)
    stats = frame.stats
    stats.update(rounds=0, zero_fix_retries=0, fixed_sizes=[])
    lo = frame.problem.lo.copy()
    hi = frame.problem.hi.copy()
    eps = INTEGRALITY_EPS
    sol = frame.root
    pending_zero = np.empty(0, dtype=int)
    for _ in range(len(lo) + 2):
        if sol.status == "infeasible":
            if not pending_zero.size:
                raise AssertionError(
                    "LP infeasible after a fixing round without zero-fixings"
                )
            hi[pending_zero] = 1.0
            stats["zero_fix_retries"] += 1
            pending_zero = pending_zero[:0]
        else:
            stats["rounds"] += 1
            v = sol.values
            ones = v >= 1.0 - eps
            fractional = _fractional(v)
            if not fractional.any():
                return frame.decode(ones)
            pending_zero = np.flatnonzero((v <= eps) & (hi > 0.0))
            hi[pending_zero] = 0.0
            lo[ones] = 1.0
            max_frac = v[fractional].max()
            lo[np.flatnonzero(fractional & (v >= max_frac - eps))[0]] = 1.0
            stats["fixed_sizes"].append((int(np.sum(hi <= 0.0)), int(np.sum(lo >= 1.0))))
        _check_deadline(deadline)
        sol = frame.solve(lo, hi)
    raise AssertionError("replp failed to converge within the round bound")


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutExceededError("replp deadline expired")
