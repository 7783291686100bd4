"""Seeded workload corpora for the benchmark.

A workload is a :class:`Corpus`: :class:`Instance` records (a game in the
text format, the minimum density known from its construction when there
is one, and the (method, seed) trials to run on it) plus the order in
which the trials run.  The program under test only ever sees the game
texts; the construction knowledge stays here and feeds the correctness
checks.

The set-cover and sparse-random families are generated here, not in the
package, because they exist to load specific layers of the solver:

* set cover: fractional LP roots, so ``ilp`` branches and ``sat`` probes;
* sparse random: 10k-position games where only the game-level code and
  the heuristics work, including the ``Arena`` rollback-heavy case.
"""

from __future__ import annotations

from dataclasses import dataclass

import sparsegames as sg
from sparsegames.game import Arena
from sparsegames.rng import SplitMix64

WORKLOADS = ("trap", "setcover", "scale")

# trap: the chain, and gen_adversarial(i) with (method, trials) per size.
# SAT runs only at i = 8, where its bisection takes about a second today.
# The eight ilp trials at i = 12 are one LP solve each; they form the
# cluster of equal-work trials in which the tail percentile falls.  The
# heuristic trials take well under a millisecond each and hold the median
# trial; with 32 seeds per game and method, the median trial of a pass
# follows the cost of the heuristics, not which few seeds were drawn.
TRAP_CHAIN = 64
TRAP_CHAIN_PLAN = (("random", 32), ("smart", 32), ("replp", 1))
TRAP_ADVERSARIAL = (
    (8, (("random", 32), ("smart", 32), ("replp", 1), ("ilp", 1), ("sat", 3))),
    (12, (("ilp", 8),)),
    (16, (("random", 32), ("smart", 32), ("replp", 1), ("ilp", 1))),
    (24, (("random", 32), ("smart", 32), ("replp", 1), ("ilp", 1))),
)

# setcover: every element in SETCOVER_REPS sets of SETCOVER_PER_SET
# elements, with a planted cover of ceil(elems / per_set) sets.  The element
# count is not a multiple of the set size, so the LP root is fractional and
# branch-and-bound must close a gap.
SETCOVER_INSTANCES = 60
SETCOVER_ELEMS = 15
SETCOVER_PER_SET = 4
SETCOVER_REPS = 4
SETCOVER_PLAN = (("smart", 4), ("replp", 1), ("ilp", 1), ("sat", 1))

# scale: the c10 adversarial game plus a fixed panel of two sparse random
# draws of 5000 + 5000 positions, one light and one rollback-heavy.  The
# panel is fixed (only trial seeds follow the workload seed) because the
# cost of the local search on this family is heavy-tailed across draws:
# 0.02-0.5 s per call on light draws and 0.5-2.6 s on heavy ones, a spread
# no bound could absorb.  Family seed 12 is a heavy draw whose per-seed
# cost varies least (0.95 s mean, coefficient of variation 0.07).
SCALE_ADVERSARIAL = 834
SCALE_HALF = 5000
SCALE_MAX_DEGREE = 3
SCALE_DEAD_PER_MILLE = 1
SCALE_PANEL = (("light", 5), ("heavy", 12))
SCALE_PLANS = {
    "adversarial": (("random", 24), ("smart", 24)),
    "light": (("random", 24), ("smart", 24)),
    "heavy": (("random", 8), ("smart", 3)),
}

# A draw is rollback-heavy when at least PROBE_HEAVY of the first
# PROBE_STEPS tentative deletions of a seeded local search roll back.
# On the draws of this family we measured, heavy ones rolled back 129-173
# of 500 and light ones 0-37.
PROBE_STEPS = 500
PROBE_HEAVY = 80
PROBE_SEED = 0x5EED


@dataclass(frozen=True)
class Instance:
    """One game of a workload and the trials to run on it."""

    label: str
    text: bytes
    reference: int | None  # minimum density by construction
    alternating: bool  # strictly alternating with a player-1 init: Mealy fold
    trials: tuple[tuple[str, int], ...]
    solve: bool = False  # also run the `sparsegames solve` statistics
    note: str = ""


@dataclass(frozen=True)
class Corpus:
    """The games of a workload and its trials in run order: (game index,
    method, seed), shuffled so that each kind of trial is spread over the
    whole pass instead of falling into one stretch of it."""

    instances: tuple[Instance, ...]
    schedule: tuple[tuple[int, str, int], ...]


def _seeds(rng: SplitMix64, count: int) -> list[int]:
    return [rng.next_u64() & 0xFFFFFFFF for _ in range(count)]


def _trials(rng: SplitMix64, plan) -> tuple[tuple[str, int], ...]:
    return tuple((method, s) for method, count in plan for s in _seeds(rng, count))


# ---------------------------------------------------------------------------
# Game families


def setcover_game(
    rng: SplitMix64, elems: int, per_set: int, reps: int
) -> tuple[sg.SafetyGame, list[list[int]]]:
    """Set-cover reduction with a planted cover.

    Player 1 at ``r`` picks an element ``x*``; player 0 answers with a set
    ``s*`` containing it, which returns to ``r``.  A strategy's density is
    the element count plus the number of sets it uses, so the minimum
    density is ``elems`` plus the minimum cover.  Every element lies in
    exactly ``reps`` sets of exactly ``per_set`` elements; the first
    ``ceil(elems / per_set)`` sets drawn cover every element, so the
    minimum cover has that size (no smaller cover exists).
    """
    if elems * reps % per_set or per_set > elems or reps < 2:
        raise ValueError("need reps >= 2 and elems * reps divisible by per_set <= elems")
    order = list(range(elems))
    rng.shuffle(order)
    planted = [order[i : i + per_set] for i in range(0, elems, per_set)]
    last = planted[-1]
    while len(last) < per_set:
        extra = order[rng.below(elems)]
        if extra not in last:
            last.append(extra)
    degree = [reps] * elems
    for members in planted:
        for e in members:
            degree[e] -= 1
    slots = [e for e in range(elems) for _ in range(degree[e])]
    while True:
        rng.shuffle(slots)
        rest = [slots[i : i + per_set] for i in range(0, len(slots), per_set)]
        if all(len(set(members)) == per_set for members in rest):
            break
    sets = [sorted(members) for members in planted + rest]
    rng.shuffle(sets)

    we, ws = len(str(elems - 1)), len(str(len(sets) - 1))
    positions = {"r": 1}
    edges: dict[tuple[str, str], str] = {}
    for e in range(elems):
        positions[f"x{e:0{we}d}"] = 0
        edges[("r", f"pick{e:0{we}d}")] = f"x{e:0{we}d}"
    for s, members in enumerate(sets):
        positions[f"s{s:0{ws}d}"] = 0
        edges[(f"s{s:0{ws}d}", "back")] = "r"
        for e in members:
            edges[(f"x{e:0{we}d}", f"use{s:0{ws}d}")] = f"s{s:0{ws}d}"
    return sg.SafetyGame.build(positions, edges, "r"), sets


def sparse_random_game(
    rng: SplitMix64, n0: int, n1: int, max_degree: int, dead_per_mille: int
) -> sg.SafetyGame:
    """Random game with 1..max_degree uniform targets per position, except
    that about ``dead_per_mille`` of the player-0 positions are dead ends.
    The initial position is a player-1 position."""
    w0, w1 = len(str(n0 - 1)), len(str(n1 - 1))
    names = [f"p{j:0{w0}d}" for j in range(n0)] + [f"q{j:0{w1}d}" for j in range(n1)]
    positions = {name: (0 if name[0] == "p" else 1) for name in names}
    edges: dict[tuple[str, str], str] = {}
    for name in names:
        owner = positions[name]
        if owner == 0 and rng.below(1000) < dead_per_mille:
            continue
        prefix = "a" if owner == 0 else "b"
        for j in range(1 + rng.below(max_degree)):
            edges[(name, f"{prefix}{j}")] = names[rng.below(n0 + n1)]
    return sg.SafetyGame.build(positions, edges, names[n0 + rng.below(n1)])


def rollback_heavy(game: sg.SafetyGame, winning: frozenset[str]) -> bool:
    """Deterministic probe: run the first PROBE_STEPS tentative deletions
    of a seeded local search and count the ones rolled back."""
    arena = Arena(game)
    order = [
        game.pos_index[p] for p in sorted(winning) if game.pos_owner[game.pos_index[p]] == 0
    ]
    SplitMix64(PROBE_SEED).shuffle(order)
    rolled_back = sum(1 for v in order[:PROBE_STEPS] if not arena.try_delete(v))
    return rolled_back >= PROBE_HEAVY


# ---------------------------------------------------------------------------
# Workloads


def _trap(rng: SplitMix64) -> list[Instance]:
    out = [
        Instance(
            f"chain{TRAP_CHAIN}",
            sg.serialize_game(sg.gen_chain(TRAP_CHAIN)),
            TRAP_CHAIN,
            True,
            _trials(rng, TRAP_CHAIN_PLAN),
        )
    ]
    for i, plan in TRAP_ADVERSARIAL:
        out.append(
            Instance(
                f"adversarial{i}",
                sg.serialize_game(sg.gen_adversarial(i)),
                2 * i,
                True,
                _trials(rng, plan),
            )
        )
    return out


def _setcover(rng: SplitMix64) -> list[Instance]:
    cover = -(-SETCOVER_ELEMS // SETCOVER_PER_SET)
    out = []
    for k in range(SETCOVER_INSTANCES):
        game, _ = setcover_game(rng, SETCOVER_ELEMS, SETCOVER_PER_SET, SETCOVER_REPS)
        out.append(
            Instance(
                f"setcover{k:02d}",
                sg.serialize_game(game),
                SETCOVER_ELEMS + cover,
                False,
                _trials(rng, SETCOVER_PLAN),
            )
        )
    return out


def _scale(rng: SplitMix64) -> list[Instance]:
    out = [
        Instance(
            f"adversarial{SCALE_ADVERSARIAL}",
            sg.serialize_game(sg.gen_adversarial(SCALE_ADVERSARIAL)),
            2 * SCALE_ADVERSARIAL,
            True,
            _trials(rng, SCALE_PLANS["adversarial"]),
            solve=True,
        )
    ]
    for kind, family_seed in SCALE_PANEL:
        game = sparse_random_game(
            SplitMix64(family_seed), SCALE_HALF, SCALE_HALF, SCALE_MAX_DEGREE,
            SCALE_DEAD_PER_MILLE,
        )
        winning = sg.compute_winning_region(game)
        if game.init not in winning:
            raise ValueError(f"scale panel draw {family_seed} is not winnable")
        if rollback_heavy(game, winning) != (kind == "heavy"):
            raise ValueError(f"scale panel draw {family_seed} is no longer {kind}")
        out.append(
            Instance(
                f"random-{kind}",
                sg.serialize_game(game),
                None,
                False,
                _trials(rng, SCALE_PLANS[kind]),
                solve=True,
                note="rollback-heavy" if kind == "heavy" else "light",
            )
        )
    return out


def build(workload: str, seed: int) -> Corpus:
    """The corpus of ``workload`` for ``seed``; equal seeds give equal corpora."""
    rng = SplitMix64(seed)
    instances = {"trap": _trap, "setcover": _setcover, "scale": _scale}[workload](rng)
    schedule = [
        (index, method, s)
        for index, inst in enumerate(instances)
        for method, s in inst.trials
    ]
    rng.shuffle(schedule)
    return Corpus(tuple(instances), tuple(schedule))
