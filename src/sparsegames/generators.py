"""Deterministic parametric game generators for tests and benchmarks.

Three families:

``gen_chain(n)``
    A strictly alternating cycle of n player-1/player-0 pairs.  Every
    player-0 position has exactly one action, so there is exactly one
    winning strategy and its density is n.

``gen_adversarial(i)``
    A family that traps the greedy undefine-one-position local search
    with probability at least 1/2 per gadget, independently, so the
    probability of landing on a sparsest strategy is at most 1/2^i while
    the game size grows linearly in i.

``gen_random(seed, n0, n1, k)``
    Seeded random games for property testing.  Never used as a headline
    benchmark; games whose initial position is losing are skipped by the
    test harness.

Adversarial construction
------------------------

From the initial player-1 position M the opponent picks any of i
gadgets.  Gadget g is entered at the player-0 position ``e``, and every
route returns to M, so the play cycles through gadgets forever.  Each
gadget has a hub tail ``wt1`` shared between its cheap route and part of
its costly side::

    e --A--> (relay) --> wt1 -----------------------> M   cheap:  e, wt1
    e --B1-> (relay) --> wm1 --c--> wt1 | --d--> wt2       costly: e, wm1, wt*
    e --B2-> (relay) --> wm2 --d--> wt2 | --f--> wt3       costly: e, wm2, wt*

All relays are player-1 positions with a single action, so the game
strictly alternates and density counts only e, wm1, wm2, wt1, wt2, wt3.
Every costly route visits three player-0 positions per gadget, the cheap
route two, and the sparsest strategy is cheap everywhere (density 2i).

A deletion-based local search processes player-0 positions in a uniform
random permutation and keeps a deletion exactly when the game stays won.
Deleting ``wt1`` kills the cheap route and locks the gadget costly
(density 3 in the gadget); it succeeds exactly when the costly side can
still avoid wt1, i.e. while (wm1 and wt2) or (wm2 and (wt2 or wt3)) are
alive.  Before any lock, deletions of wm1, wm2, wt2, wt3 always succeed
(the cheap route keeps the game won), so whether the gadget locks costly
depends only on the relative permutation order of these five positions.
Conditioning on the rank r of wt1 among them, the costly side is still
avoidably viable with probability 1, 1, 1/2, 0, 0 for r = 1..5, so the
trap probability is exactly (1 + 1 + 1/2)/5 = 1/2 per gadget, and it is
independent across gadgets because the positions are disjoint.  The
local search therefore finds a sparsest strategy with probability
exactly 1/2^i.

The shared tail also matters for the plain uniform-random extractor: a
pick that routes e over B1 and wm1 over c visits {e, wm1, wt1}, and wm1
can then be dropped by rerouting e over A, so such picks are not locally
optimal.
"""

from __future__ import annotations

from .game import SafetyGame
from .rng import SplitMix64


def gen_chain(n: int) -> SafetyGame:
    """Alternating cycle m_1 -> c_1 -> m_2 -> ... -> c_n -> m_1 with
    player-1 positions m_* and single-action player-0 positions c_*.
    Exactly one winning strategy; minimum density n."""
    if n < 1:
        raise ValueError("gen_chain requires n >= 1")
    width = len(str(n))
    positions: dict[str, int] = {}
    edges: dict[tuple[str, str], str] = {}
    for idx in range(1, n + 1):
        m = f"m{idx:0{width}d}"
        c = f"c{idx:0{width}d}"
        positions[m] = 1
        positions[c] = 0
        nxt = f"m{(idx % n) + 1:0{width}d}"
        edges[(m, "go")] = c
        edges[(c, "step")] = nxt
    return SafetyGame.build(positions, edges, f"m{1:0{width}d}")


def gen_adversarial(i: int) -> SafetyGame:
    """Trap family described in the module docstring.  Size 12*i + 1,
    minimum density 2*i, local optima densities 2*i .. 3*i."""
    if i < 1:
        raise ValueError("gen_adversarial requires i >= 1")
    width = len(str(i))
    positions: dict[str, int] = {"M": 1}
    edges: dict[tuple[str, str], str] = {}
    for g in range(1, i + 1):
        tag = f"{g:0{width}d}"
        e = f"e{tag}"
        wm1, wm2 = f"wm1_{tag}", f"wm2_{tag}"
        wt1, wt2, wt3 = f"wt1_{tag}", f"wt2_{tag}", f"wt3_{tag}"
        ra = f"ra_{tag}"
        rb1, rb2 = f"rb1_{tag}", f"rb2_{tag}"
        rt1, rt2, rt3 = f"rt1_{tag}", f"rt2_{tag}", f"rt3_{tag}"
        for p in (e, wm1, wm2, wt1, wt2, wt3):
            positions[p] = 0
        for p in (ra, rb1, rb2, rt1, rt2, rt3):
            positions[p] = 1
        edges[("M", f"go{tag}")] = e
        # Cheap route through the gadget's shared tail wt1.
        edges[(e, "A")] = ra
        edges[(ra, "t")] = wt1
        # Costly routes.
        edges[(e, "B1")] = rb1
        edges[(e, "B2")] = rb2
        edges[(rb1, "t")] = wm1
        edges[(rb2, "t")] = wm2
        edges[(wm1, "c")] = rt1
        edges[(wm1, "d")] = rt2
        edges[(wm2, "d")] = rt2
        edges[(wm2, "f")] = rt3
        edges[(rt1, "t")] = wt1
        edges[(rt2, "t")] = wt2
        edges[(rt3, "t")] = wt3
        for wt in (wt1, wt2, wt3):
            edges[(wt, "c")] = "M"
    return SafetyGame.build(positions, edges, "M")


def gen_random(seed: int, n0: int, n1: int, k: int) -> SafetyGame:
    """Random game with n0 player-0 and n1 player-1 positions, between 0
    and k actions per position, targets drawn uniformly.  Deterministic
    in (seed, n0, n1, k)."""
    if n0 < 1 or n1 < 1 or k < 1:
        raise ValueError("gen_random requires n0, n1, k >= 1")
    rng = SplitMix64(seed)
    w0 = len(str(n0))
    w1 = len(str(n1))
    names = [f"p{j:0{w0}d}" for j in range(n0)] + [f"q{j:0{w1}d}" for j in range(n1)]
    positions = {name: (0 if name[0] == "p" else 1) for name in names}
    total = n0 + n1
    edges: dict[tuple[str, str], str] = {}
    for name in names:
        prefix = "a" if positions[name] == 0 else "b"
        # Degree 0..k; dead ends are the whole point (player-0 dead ends
        # are losing, player-1 dead ends are winning), so the winning
        # region is usually a proper subset.
        degree = rng.below(k + 1)
        for j in range(degree):
            target = names[rng.below(total)]
            edges[(name, f"{prefix}{j}")] = target
    init = names[rng.below(total)]
    return SafetyGame.build(positions, edges, init)
