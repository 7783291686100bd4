"""Checks of the benchmark's own game families.

    python3 -m pytest perfbench
"""

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

import corpus
import sparsegames as sg
from sparsegames.rng import SplitMix64


def min_cover(elems: int, sets: list[list[int]]) -> int:
    for size in range(1, len(sets) + 1):
        for choice in itertools.combinations(sets, size):
            if len({e for s in choice for e in s}) == elems:
                return size
    raise AssertionError("the sets cover nothing")


@pytest.mark.parametrize("elems,per_set,reps", [(5, 2, 2), (6, 3, 2), (7, 3, 3), (9, 4, 4)])
@pytest.mark.parametrize("seed", range(4))
def test_setcover_minimum_density_is_elements_plus_minimum_cover(elems, per_set, reps, seed):
    game, sets = corpus.setcover_game(SplitMix64(seed), elems, per_set, reps)
    assert all(len(set(s)) == per_set for s in sets)
    assert all(sum(e in s for s in sets) == reps for e in range(elems))
    cover = min_cover(elems, sets)
    assert cover == -(-elems // per_set)  # the planted cover is a minimum one
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    best, _ = sg.brute_force_min_density(game, mp)
    assert best == elems + cover


def test_setcover_workload_roots_are_fractional():
    for inst in corpus.build("setcover", 0).instances:
        game = sg.parse_game(inst.text)
        mp = sg.most_permissive(game, sg.compute_winning_region(game))
        pruned, mp2 = sg.lp.pruned_context(game, mp)
        root = sg.lp_solve(sg.build_relaxation(pruned, mp2))
        assert root.objective_value < inst.reference - 0.1
        assert any(1e-6 < v < 1 - 1e-6 for v in root.values)


def test_sparse_random_game_is_seeded_and_non_degenerate():
    make = lambda: corpus.sparse_random_game(SplitMix64(3), 2000, 2000, 3, 1)
    game = make()
    assert sg.serialize_game(game) == sg.serialize_game(make())
    degree = [len(out) for out in game.out_edges]
    dead0 = sum(1 for v, d in enumerate(degree) if d == 0 and game.pos_owner[v] == 0)
    assert dead0 <= 10  # about 1 per mille of 2000
    assert all(d >= 1 for v, d in enumerate(degree) if game.pos_owner[v] == 1)
    assert game.init in game.positions1


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_a_function_of_the_seed(workload):
    first = corpus.build(workload, 5)
    assert first == corpus.build(workload, 5)
    assert first != corpus.build(workload, 6)


def test_scale_panel_names_its_rollback_heavy_game():
    notes = {inst.label: inst.note for inst in corpus.build("scale", 0).instances}
    assert notes["random-heavy"] == "rollback-heavy"
    assert notes["random-light"] == "light"
