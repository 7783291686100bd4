"""Shared test helpers: independent reference implementations (among them
the unreduced LP and CNF encodings, ``full_relaxation`` and ``full_cnf``)
and game corpora used as oracles across the suite."""

from __future__ import annotations

import numpy as np

import sparsegames as sg
from sparsegames.lp import pruned_context


def naive_winning_region(game: sg.SafetyGame) -> frozenset[str]:
    """Reference fixpoint: rescan all positions every pass, removing any
    that violates one of the three safety conditions."""
    alive = set(range(len(game.pos_names)))
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            out_alive = [d for _, d in game.out_edges[v] if d in alive]
            if game.pos_owner[v] == 0:
                bad = not out_alive
            else:
                bad = any(d not in alive for _, d in game.out_edges[v])
            if bad:
                alive.discard(v)
                changed = True
    return frozenset(game.pos_names[v] for v in alive)


def reference_fixpoint(game: sg.SafetyGame) -> sg.game.Fixpoint:
    """Reference initial fixpoint, solved with its own drain and walk:
    drain the player-0 dead ends, then flag the forced closure of a
    winning init: init, every successor of a player-1 member and the one
    distinct live target of a player-0 member."""
    owner, out, in_sources = game.pos_owner, game.out_edges, game.in_sources
    n = len(owner)
    alive = [True] * n
    cnt = [len(edges) for edges in out]
    queue = [v for v in range(n) if owner[v] == 0 and cnt[v] == 0]
    for v in queue:
        alive[v] = False
    for t in queue:
        for s in in_sources[t]:
            if not alive[s]:
                continue
            if owner[s] == 0:
                cnt[s] -= 1
                if cnt[s]:
                    continue
            alive[s] = False
            queue.append(s)
    doomed = [False] * n
    doomed[game.init_index] = True
    stack = [game.init_index] if alive[game.init_index] else []
    while stack:
        v = stack.pop()
        if owner[v]:
            for _, d in out[v]:
                if not doomed[d]:
                    doomed[d] = True
                    stack.append(d)
            continue
        target = -1
        for _, d in out[v]:
            if alive[d] and d != target:
                if target >= 0:
                    break
                target = d
        else:
            if not doomed[target]:
                doomed[target] = True
                stack.append(target)
    return sg.game.Fixpoint(tuple(alive), tuple(cnt), tuple(doomed))


def naive_region_without(game: sg.SafetyGame, deleted) -> set[int]:
    """Naive winning indices once the player-0 positions in ``deleted``
    have lost their outgoing edges."""
    owners = {p: game.pos_owner[game.pos_index[p]] for p in game.pos_names}
    gone = {game.pos_names[v] for v in deleted}
    edges = {e: d for e, d in game.edges.items() if e[0] not in gone}
    smaller = sg.SafetyGame.build(owners, edges, game.init)
    return {game.pos_index[p] for p in naive_winning_region(smaller)}


def solvable_random_games(count, n0=5, n1=5, k=2, start_seed=0, max_bits=None):
    """Deterministic stream of (game, winning, mp) with init winning,
    optionally filtered by pruned search-space bits."""
    out = []
    seed = start_seed
    while len(out) < count:
        game = sg.gen_random(seed, n0, n1, k)
        seed += 1
        winning = sg.compute_winning_region(game)
        if game.init not in winning:
            continue
        mp = sg.most_permissive(game, winning)
        if max_bits is not None:
            pruned, mp2 = pruned_context(game, mp)
            if sg.search_space_bits(pruned, mp2) > max_bits:
                continue
        out.append((game, winning, mp))
    return out


def gap_game(n: int, k: int):
    """Unplanted random set cover with an integrality gap: n elements and
    n sets of k members drawn with ``random.Random(1)``, plus a singleton
    set for each element in no set.  Returns the game, in the shape of
    ``perfbench/corpus.py``'s ``setcover_game``, and the sets.  Player 1
    picks an element, player 0 answers with a set holding it, so the
    minimum density is n plus the minimum cover."""
    import random

    rng = random.Random(1)
    sets = [sorted(rng.sample(range(n), k)) for _ in range(n)]
    covered = {e for members in sets for e in members}
    sets += [[e] for e in range(n) if e not in covered]
    we, ws = len(str(n - 1)), len(str(len(sets) - 1))
    positions = {"r": 1}
    edges = {}
    for e in range(n):
        positions[f"x{e:0{we}d}"] = 0
        edges[("r", f"pick{e:0{we}d}")] = f"x{e:0{we}d}"
    for s, members in enumerate(sets):
        positions[f"s{s:0{ws}d}"] = 0
        edges[(f"s{s:0{ws}d}", "back")] = "r"
        for e in members:
            edges[(f"x{e:0{we}d}", f"use{s:0{ws}d}")] = f"s{s:0{ws}d}"
    return sg.SafetyGame.build(positions, edges, "r"), sets


def _full_support_rows(
    game: sg.SafetyGame, mp: sg.MostPermissiveStrategy
) -> list[tuple[int, tuple[int, ...]]]:
    """The support pairs of every winning position, none left out: a
    player-0 position gives one pair with the targets of its allowed
    actions, duplicates kept; a player-1 position gives one ``(v, (d,))``
    pair per distinct successor, in index order."""
    rows: list[tuple[int, tuple[int, ...]]] = []
    for v, edges in mp.moves.items():
        if game.pos_owner[v] == 0:
            rows.append((v, tuple([d for _, d in edges])))
        else:
            rows += [(v, (d,)) for d in sorted({d for _, d in edges})]
    return rows


def _pair_rows(pairs, column, n: int):
    """The rows and right-hand sides of support pairs over ``n`` columns,
    where ``column[v]`` is position ``v``'s column.  A pair ``(v, targets)``
    is the row ``-v + sum(targets) >= 0`` and a pair ``(None, targets)``,
    whose source is already in the support, the row ``sum(targets) >= 1``;
    duplicate targets accumulate coefficients."""
    rows = np.zeros((len(pairs), n))
    for row, (v, targets) in zip(rows, pairs):
        if v is not None:
            row[column[v]] = -1.0
        for d in targets:
            row[column[d]] += 1.0
    return rows, np.array([float(v is None) for v, _ in pairs])


def full_relaxation(game: sg.SafetyGame, mp: sg.MostPermissiveStrategy) -> sg.LpProblem:
    """Reference unreduced relaxation over a pruned game.

    One variable per position, bounds [0,1] with init fixed to 1, an
    explicit ``init >= 1`` row, and one ``-v + sum(targets) >= 0`` row per
    support pair: a flow row per player-0 position (duplicate targets
    accumulate coefficients) and a row per (player-1 position, distinct
    successor) pair.
    """
    if len(mp.moves) != len(game.pos_names):
        raise ValueError("full_relaxation expects a game pruned to its winning part")
    names = game.pos_names
    n = len(names)
    objective = np.array(
        [1.0 if o == 0 else 0.0 for o in game.pos_owner], dtype=float
    )
    pairs = _full_support_rows(game, mp)
    rows, rhs = _pair_rows([(None, (game.init_index,)), *pairs], range(n), n)
    lo = np.zeros(n)
    hi = np.ones(n)
    lo[game.init_index] = 1.0
    return sg.LpProblem(
        var_names=names,
        objective=objective,
        rows=rows,
        rhs=rhs,
        lo=lo,
        hi=hi,
    )


def _support_clauses(pairs, var) -> list[list[int]]:
    """The clauses of support pairs, where ``var[v]`` is position ``v``'s
    variable: ``!v | targets`` for a pair ``(v, targets)`` and ``targets``
    for a pair ``(None, targets)``, whose source is already in the
    support.  Targets are deduplicated and sorted by variable; a target
    with variable 0 (a losing position) is an error."""
    clauses: list[list[int]] = []
    for v, targets in pairs:
        # Sorted and deduplicated, a losing target shows as a leading 0.
        if len(targets) == 1:  # every player-1 pair
            lits = [var[targets[0]]]
        else:
            lits = sorted({var[d] for d in targets})
        if lits and not lits[0]:
            raise ValueError(
                "a support target of a winning position is losing; "
                "the most-permissive strategy is inconsistent"
            )
        clauses.append(lits if v is None else [-var[v], *lits])
    return clauses


def full_cnf(
    game: sg.SafetyGame, mp: sg.MostPermissiveStrategy
) -> tuple[sg.Cnf, dict[str, int]]:
    """Reference unreduced Boolean strategy constraints over the winning
    positions.

    Variables number the keys of ``mp.moves`` (the winning positions) in
    index order.  Unit clause for init, then the clause ``!v | targets``
    per support pair.  When init is losing the instance is a single empty
    clause, trivially unsatisfiable.
    """
    if game.init_index not in mp.moves:
        return sg.Cnf(0, [[]]), {}
    var = [0] * len(game.pos_names)  # 0 marks a losing position
    var_map: dict[str, int] = {}
    for v in mp.moves:
        var[v] = var_map[game.pos_names[v]] = len(var_map) + 1
    pairs = [(None, (game.init_index,)), *_full_support_rows(game, mp)]
    return sg.Cnf(len(var_map), _support_clauses(pairs, var)), var_map


def unchecked_most_permissive(game: sg.SafetyGame, winning: frozenset[str]):
    """Most-permissive structure without the init-winning check, so tests
    can exercise losing games."""
    win_idx = {game.pos_index[p] for p in winning}
    moves = {}
    for v in sorted(win_idx):
        out = game.out_edges[v]
        moves[v] = out if game.pos_owner[v] else tuple(e for e in out if e[1] in win_idx)
    return sg.MostPermissiveStrategy(winning=frozenset(winning), moves=moves)


def allowed_names(game: sg.SafetyGame, mp: sg.MostPermissiveStrategy):
    """Name view of the player-0 entries of ``mp.moves``: position name ->
    allowed action names."""
    return {
        game.pos_names[v]: tuple(game.act_names[a] for a, _ in edges)
        for v, edges in mp.moves.items()
        if game.pos_owner[v] == 0
    }


def full_product_min_density(game: sg.SafetyGame, mp: sg.MostPermissiveStrategy) -> int:
    """Second, independent enumeration order: the plain cartesian product
    over all allowed sets, without reachability-guided branching."""
    import itertools

    allowed = allowed_names(game, mp)
    positions = sorted(allowed)
    pools = [sorted(allowed[p]) for p in positions]
    best = None
    for combo in itertools.product(*pools):
        strat = sg.PositionalStrategy(dict(zip(positions, combo)))
        d = sg.density(game, strat)
        best = d if best is None else min(best, d)
    return best


FIG_GAME = sg.SafetyGame.build(
    {"g0": 1, "g1": 0, "g2": 1, "g3": 0},
    {
        ("g0", "u"): "g1",
        ("g0", "v"): "g1",
        ("g1", "y"): "g2",
        ("g1", "z"): "g2",
        ("g2", "u"): "g3",
        ("g2", "v"): "g1",
        ("g3", "x"): "g0",
    },
    "g0",
)
