"""Boolean engine: CNF encoding of the strategy constraints, an internal
CDCL solver, cardinality constraints, and minimization by probes that
start at the LP bound.

The clauses are the pairs of :class:`sparsegames.lp.ReducedProblem`,
which also give the LP relaxation its rows: only the free positions are
variables (:func:`encode_cnf`).  Minimization starts from the frame
shared by the LP engines (:class:`sparsegames.lp._Frame`) and adds to
those clauses a sequential-counter at-most-k encoding that bounds the
free player-0 variables by k minus the forced player-0 count, so on a
set cover game the counter covers the sets alone.  An integral LP root
is already certified by the frame and needs no SAT call.  Otherwise the
probes ask for k = the LP bound rounded up, then one more after each
refutation, so the first model is optimal.

The solver is a conventional CDCL: two watched literals per clause,
watch lists and values indexed by literal, first-UIP conflict learning,
decaying variable activities with deterministic index tie-breaking,
phase saving, and Luby restarts.  It has no randomized component, so
identical input yields an identical model or refutation.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from .game import MostPermissiveStrategy, SafetyGame
from .ilp import ExactResult
from .lp import ReducedProblem, _Frame, reduced_problem

DEFAULT_CONFLICT_BUDGET = 10**7


@dataclass
class Cnf:
    """Clauses over variables 1..num_vars; literals are signed ints."""

    num_vars: int
    clauses: list[list[int]] = field(default_factory=list)


@dataclass(eq=False)
class SatOutcome:
    status: str  # "sat" | "unsat" | "unknown" (conflict budget or deadline ran out)
    model: tuple[bool, ...] | None = None
    conflicts: int = 0


def to_dimacs(cnf: Cnf, comments: tuple[str, ...] = ()) -> str:
    """Standard DIMACS rendering, clauses terminated by 0."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
    lines.extend(" ".join(str(l) for l in clause) + " 0" for clause in cnf.clauses)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CDCL solver


def _luby(i: int) -> int:
    # Luby sequence (1-indexed): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
    # luby(2^k - 1) = 2^(k-1); otherwise recurse on the position within
    # the current block.
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class _Solver:
    _RESTART_BASE = 100
    _ACT_DECAY = 0.95
    _ACT_LIMIT = 1e100

    def __init__(self, num_vars: int):
        n = num_vars
        self.nvars = n
        self.clauses: list[list[int]] = []
        # Per-literal lists of length 2n + 1, indexed by the signed literal
        # itself: Python's negative indexing gives -l its own slot, as in
        # MiniSat's watch lists (Een & Sorensson, SAT 2003).  ``watches[l]``
        # holds the clauses watching l, and ``value[l]`` is 1 when l is
        # true, -1 when false and 0 when unassigned; both slots of a
        # variable are written together.
        self.watches: list[list[int]] = [[] for _ in range(2 * n + 1)]
        self.value = [0] * (2 * n + 1)
        self.level = [0] * (n + 1)
        self.reason = [-1] * (n + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity = [0.0] * (n + 1)
        self.var_inc = 1.0
        self.polarity = [False] * (n + 1)
        # Lazy max-heap over (-activity, var): every unassigned variable
        # has an entry with its current activity, since only assigned ones
        # are bumped, ``_backjump`` pushes on unassignment and a rescale
        # rebuilds the heap.  Stale entries are skipped at pop time.
        self.order = [(0.0, v) for v in range(1, n + 1)]
        heapq.heapify(self.order)
        self.seen = bytearray(n + 1)
        self.unsat_at_root = False

    # -- clause management

    def add_clause(self, lits: list[int]) -> None:
        unique = sorted(set(lits), key=abs)
        if unique and not 0 < abs(unique[0]) <= abs(unique[-1]) <= self.nvars:
            raise ValueError(f"clause {lits} has a literal outside 1..{self.nvars}")
        for q in unique:
            if -q in unique:
                return  # tautology
        if not unique:
            self.unsat_at_root = True
            return
        if len(unique) == 1:
            cur = self.value[unique[0]]
            if cur == -1:
                self.unsat_at_root = True
            elif cur == 0:
                self._enqueue(unique[0], -1)
            return
        ci = len(self.clauses)
        self.clauses.append(unique)
        self.watches[unique[0]].append(ci)
        self.watches[unique[1]].append(ci)

    # -- assignment primitives

    def _enqueue(self, lit: int, reason: int) -> None:
        v = lit if lit > 0 else -lit
        self.value[lit], self.value[-lit] = 1, -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause index or -1."""
        clauses = self.clauses
        watches = self.watches
        value = self.value
        trail = self.trail
        level = self.level
        reason = self.reason
        while self.qhead < len(trail):
            lit = trail[self.qhead]
            self.qhead += 1
            false_lit = -lit
            ws = watches[false_lit]
            if not ws:
                continue
            kept: list[int] = []
            conflict = -1
            cur_level = len(self.trail_lim)
            for pos, ci in enumerate(ws):
                cl = clauses[ci]
                if cl[0] == false_lit:
                    cl[0] = cl[1]
                    cl[1] = false_lit
                first = cl[0]
                fv = value[first]
                if fv == 1:
                    kept.append(ci)
                    continue
                for k in range(2, len(cl)):
                    q = cl[k]
                    if value[q] != -1:
                        cl[1] = q
                        cl[k] = false_lit
                        watches[q].append(ci)
                        break
                else:
                    kept.append(ci)
                    if fv == -1:
                        kept.extend(ws[pos + 1 :])
                        self.qhead = len(trail)
                        conflict = ci
                        break
                    v = first if first > 0 else -first
                    value[first], value[-first] = 1, -1
                    level[v] = cur_level
                    reason[v] = ci
                    trail.append(first)
            watches[false_lit] = kept
            if conflict >= 0:
                return conflict
        return -1

    # -- activities

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > self._ACT_LIMIT:
            scale = 1.0 / self._ACT_LIMIT
            for u in range(1, self.nvars + 1):
                self.activity[u] *= scale
            self.var_inc *= scale
            self.order = [
                (-self.activity[u], u)
                for u in range(1, self.nvars + 1)
                if self.value[u] == 0
            ]
            heapq.heapify(self.order)

    # -- conflict analysis

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        learned: list[int] = [0]
        seen = self.seen
        counter = 0
        lit = 0
        index = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            cl = self.clauses[confl]
            for k in range(1 if lit else 0, len(cl)):
                q = cl[k]
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = 1
                    self._bump(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[abs(self.trail[index])]:
                index -= 1
            lit = self.trail[index]
            v = abs(lit)
            index -= 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            confl = self.reason[v]
        learned[0] = -lit
        # Self-subsumption minimization: a tail literal is redundant when
        # every other literal of its reason clause is already in the
        # learned clause (seen) or fixed at level 0, since resolving with
        # that reason removes it without adding anything.  A reason can
        # mention the asserting variable only as the asserting literal
        # itself, so it counts as present.
        uip_var = abs(lit)
        seen[uip_var] = 1
        kept = [learned[0]]
        for q in learned[1:]:
            v = abs(q)
            r = self.reason[v]
            if r < 0:
                kept.append(q)
                continue
            for other in self.clauses[r]:
                u = abs(other)
                if u != v and not seen[u] and self.level[u] > 0:
                    kept.append(q)
                    break
        seen[uip_var] = 0
        for q in learned[1:]:
            seen[abs(q)] = 0
        learned = kept
        if len(learned) == 1:
            return learned, 0
        max_i = max(range(1, len(learned)), key=lambda i: self.level[abs(learned[i])])
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self.level[abs(learned[1])]

    def _backjump(self, bj_level: int) -> None:
        trail = self.trail
        level = self.level
        order = self.order
        activity = self.activity
        value = self.value
        polarity = self.polarity
        reason = self.reason
        push = heapq.heappush
        while trail:
            lit = trail[-1]
            v = lit if lit > 0 else -lit
            if level[v] <= bj_level:
                break
            trail.pop()
            polarity[v] = lit > 0
            value[lit] = value[-lit] = 0
            reason[v] = -1
            push(order, (-activity[v], v))
        del self.trail_lim[bj_level:]
        self.qhead = min(self.qhead, len(trail))

    def _decide(self) -> int:
        order = self.order
        value = self.value
        activity = self.activity
        while order:
            neg_act, v = heapq.heappop(order)
            if value[v] == 0 and -neg_act == activity[v]:
                return v if self.polarity[v] else -v
        return 0

    def solve(
        self, max_conflicts: int, deadline: float | None = None
    ) -> SatOutcome:
        if self.unsat_at_root:
            return SatOutcome("unsat")
        if self._propagate() >= 0:
            return SatOutcome("unsat")
        conflicts = 0
        restart_count = 1
        restart_limit = self._RESTART_BASE * _luby(1)
        since_restart = 0
        while True:
            confl = self._propagate()
            if confl >= 0:
                conflicts += 1
                since_restart += 1
                if conflicts > max_conflicts or (
                    deadline is not None
                    and conflicts % 512 == 0
                    and time.monotonic() > deadline
                ):
                    return SatOutcome("unknown", conflicts=conflicts)
                if not self.trail_lim:
                    return SatOutcome("unsat", conflicts=conflicts)
                learned, bj_level = self._analyze(confl)
                self._backjump(bj_level)
                if len(learned) == 1:
                    self._enqueue(learned[0], -1)
                else:
                    ci = len(self.clauses)
                    self.clauses.append(learned)
                    self.watches[learned[0]].append(ci)
                    self.watches[learned[1]].append(ci)
                    self._enqueue(learned[0], ci)
                self.var_inc /= self._ACT_DECAY
            else:
                if since_restart >= restart_limit:
                    restart_count += 1
                    restart_limit = self._RESTART_BASE * _luby(restart_count)
                    since_restart = 0
                    self._backjump(0)
                    continue
                lit = self._decide()
                if lit == 0:
                    model = tuple([x == 1 for x in self.value[1 : self.nvars + 1]])
                    return SatOutcome("sat", model, conflicts)
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, -1)


def sat_solve(
    cnf: Cnf,
    max_conflicts: int = DEFAULT_CONFLICT_BUDGET,
    deadline: float | None = None,
) -> SatOutcome:
    """Complete CDCL check; "unknown" when the conflict budget or the
    deadline runs out first."""
    solver = _Solver(cnf.num_vars)
    for clause in cnf.clauses:
        solver.add_clause(clause)
    return solver.solve(max_conflicts, deadline)


# ---------------------------------------------------------------------------
# Encodings


def encode_at_most_k(
    variables: list[int], k: int, first_aux: int
) -> tuple[list[list[int]], int]:
    """Sequential-counter encoding of 'at most k of these variables are
    true'.  Auxiliary registers take indices first_aux, first_aux+1, ...;
    returns the clause list and the number of auxiliaries used.  Size is
    O(len(variables) * k) clauses."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = len(variables)
    if k == 0:
        return [[-x] for x in variables], 0
    if k >= n:
        return [], 0

    def reg(i: int, j: int) -> int:
        return first_aux + i * k + (j - 1)

    x = variables
    clauses: list[list[int]] = [[-x[0], reg(0, 1)]]
    for j in range(2, k + 1):
        clauses.append([-reg(0, j)])
    for i in range(1, n - 1):
        clauses.append([-x[i], reg(i, 1)])
        clauses.append([-reg(i - 1, 1), reg(i, 1)])
        for j in range(2, k + 1):
            clauses.append([-x[i], -reg(i - 1, j - 1), reg(i, j)])
            clauses.append([-reg(i - 1, j), reg(i, j)])
        clauses.append([-x[i], -reg(i - 1, k)])
    clauses.append([-x[n - 1], -reg(n - 2, k)])
    return clauses, (n - 1) * k


def encode_cnf(game: SafetyGame, reduced: ReducedProblem) -> tuple[Cnf, dict[str, int]]:
    """Boolean strategy constraints of a reduced problem of ``game``: LP
    column j is variable j + 1, and each pair is the clause ``!x_source |
    targets``, or ``targets`` for a forced source, with the targets
    deduplicated and sorted.  ``var_map`` maps each free position's name
    to its variable."""
    free, bounds = reduced.free.tolist(), reduced.indptr.tolist()
    lits = (reduced.targets + 1).tolist()
    clauses = []
    for j, a, b in zip(reduced.source.tolist(), bounds, bounds[1:]):
        targets = sorted(set(lits[a:b]))
        clauses.append(targets if j < 0 else [-(j + 1), *targets])
    return Cnf(len(free), clauses), {game.pos_names[v]: j + 1 for j, v in enumerate(free)}


def build_cnf(game: SafetyGame, mp: MostPermissiveStrategy) -> tuple[Cnf, dict[str, int]]:
    """:func:`encode_cnf` of the game's :func:`~.lp.reduced_problem` under ``mp``."""
    return encode_cnf(game, reduced_problem(game, mp))


def sat_exact_extract(
    game: SafetyGame,
    mp: MostPermissiveStrategy,
    *,
    max_conflicts: int = DEFAULT_CONFLICT_BUDGET,
    warm_seed: int = 0,
    deadline: float | None = None,
    stats: dict | None = None,
) -> ExactResult:
    """Minimum-density extraction by SAT probes on a cardinality bound.

    The probes start at :class:`_Frame`'s ``lb``, the root LP optimum
    rounded up, and end below its incumbent's density.  When the root is
    integral the frame has already closed the gap, so no probe runs and
    the result is certified with ``work == 0``.  Otherwise each probe
    solves the clauses of :func:`encode_cnf` plus at-most-(k minus
    the forced player-0 count) over the free player-0 variables, for
    k = ``lb``, ``lb + 1``, ...; a refutation raises k by one, and the
    first model, offered to the frame as the flags of its free position
    variables, is optimal.  ``work`` counts SAT calls.  When the conflict
    budget or the ``deadline`` runs out first, the best strategy so far
    is returned uncertified.  ``warm_seed`` is ignored.  When a ``stats``
    dict is supplied, every probe is recorded under ``"probes"`` as (k,
    status, conflicts), the forced player-0 count under ``"forced"`` and
    the frame's reduced LP's (rows, variables) under ``"lp_shape"``.
    """
    frame = _Frame(game, mp)
    reduced = frame.reduced
    n = len(reduced.free)
    p0_vars = (reduced.player0.nonzero()[0] + 1).tolist()
    # An integral root has closed the gap already and needs no clauses.
    base = encode_cnf(frame.game, reduced)[0] if frame.lb < frame.ub else None

    k = frame.lb
    probes = []
    while k < frame.ub and (deadline is None or time.monotonic() <= deadline):
        card, n_aux = encode_at_most_k(p0_vars, k - reduced.offset, n + 1)
        cnf = Cnf(n + n_aux, base.clauses + card)
        outcome = sat_solve(cnf, max_conflicts, deadline)
        probes.append((k, outcome.status, outcome.conflicts))
        if outcome.status == "unknown":
            break
        if outcome.status == "sat":
            frame.offer(outcome.model[:n])
        k += 1
    if stats is not None:
        stats["probes"] = probes
        frame.record(stats)
    return ExactResult(frame.best, frame.ub, k >= frame.ub, len(probes))
