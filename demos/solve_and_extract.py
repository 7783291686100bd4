#!/usr/bin/env python3
"""Walkthrough: solve a safety game and extract sparse winning strategies.

Builds a small game from text, computes the winning region and the
most-permissive strategy, then runs all five extraction methods and
compares the densities they achieve.
"""

import time

import sparsegames as sg
from sparsegames.lp import pruned_context

GAME_TEXT = b"""
# A toy request/grant loop.  Player 1 (environment) raises requests,
# player 0 (system) answers.  Granting both lines at once is fatal.
pos idle 1
pos req1 0
pos req2 0
pos both 0
pos fail 0
init idle
edge idle r1 req1
edge idle r2 req2
edge idle rb both
edge req1 g1 idle
edge req1 gboth fail
edge req2 g2 idle
edge both g1 req2
edge both g2 req1
edge both gboth fail
"""

game = sg.parse_game(GAME_TEXT)
print(f"parsed: {game}")

winning = sg.compute_winning_region(game)
print(f"winning region ({len(winning)} positions): {sorted(winning)}")
print(f"init winning: {game.init in winning}")

mp = sg.most_permissive(game, winning)
print("\nmost permissive strategy (allowed actions per position):")
for v, edges in mp.moves.items():
    if game.pos_owner[v] == 0:  # player-1 entries take every edge
        acts = ", ".join(game.act_names[a] for a, _ in edges)
        print(f"  {game.pos_names[v]}: {acts}")

pruned, mp_pruned = pruned_context(game, mp)
print(f"\npruned to reachable winning part: {len(pruned.pos_names)} positions")
print(f"search space: {sg.search_space_bits(pruned, mp_pruned):.2f} bits")

print("\nextraction methods:")
results = {}
for name in ("random", "smart", "replp", "ilp", "sat"):
    t0 = time.perf_counter()
    if name == "random":
        strat = sg.random_extract(game, mp, seed=1)
    elif name == "smart":
        strat = sg.smart_random_extract(game, winning, seed=1)
    elif name == "replp":
        strat = sg.replp_extract(game, mp)
    elif name == "ilp":
        strat = sg.ilp_exact_extract(game, mp).strategy
    else:
        strat = sg.sat_exact_extract(game, mp).strategy
    elapsed = time.perf_counter() - t0
    verdict = sg.validate_strategy(game, mp, strat)
    results[name] = strat
    print(
        f"  {name:7s} density {sg.density(game, strat)}  "
        f"valid {verdict.winning}  {elapsed * 1e3:7.2f} ms"
    )

best, witness = sg.brute_force_min_density(game, mp)
print(f"\nbrute-force minimum density: {best}")
print("one sparsest strategy:")
print(sg.serialize_strategy(witness).decode(), end="")
