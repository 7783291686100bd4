#!/usr/bin/env python3
"""From positional strategies to Mealy machines.

In a strictly alternating game where player 1 moves first, a winning
positional strategy of density n folds into a transducer with at most
n+1 states.
"""

import sparsegames as sg

game = sg.parse_game(b"""
pos g0 1
pos g1 0
pos g2 1
pos g3 0
init g0
edge g0 u g1
edge g0 v g1
edge g1 y g2
edge g1 z g2
edge g2 u g3
edge g2 v g1
edge g3 x g0
""")

winning = sg.compute_winning_region(game)
strat = sg.PositionalStrategy({"g1": "z", "g3": "x"})
print(f"strategy density: {sg.density(game, strat)}")

machine = sg.strategy_to_mealy(game, strat)
print(f"machine states: {len(machine.states)} (bound: density + 1)")
print(sg.serialize_mealy(machine).decode())

print("running the machine on input u v v u:")
print("  outputs:", " ".join(machine.run(["u", "v", "v", "u"])))

print("size bound across generated alternating games:")
for n in (2, 4, 6):
    chain = sg.gen_chain(n)
    w = sg.compute_winning_region(chain)
    s = sg.smart_random_extract(chain, w, 0)
    m = sg.strategy_to_mealy(chain, s)
    print(f"  chain({n}): density {sg.density(chain, s)}, states {len(m.states)}")
