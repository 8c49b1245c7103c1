from __future__ import annotations

import random

import pytest

from treeabel import GenSpec, UnsatisfiableSpecError, is_in_delta_half, random_tree, validate
from treeabel import generator


class TestRandomTree:
    def test_single_component_shape(self):
        tree = random_tree(GenSpec(genus=2, max_components=1, seed=7))
        assert [(c.id, c.genus) for c in tree.components] == [("C1", 2)]
        assert tree.nodes == ()

    def test_forced_half_split_smallest_case(self):
        tree = random_tree(GenSpec(genus=4, max_components=2, seed=1, force_delta_half=True))
        assert sorted(c.genus for c in tree.components) == [2, 2]
        assert len(tree.nodes) == 1
        assert is_in_delta_half(tree)

    @pytest.mark.parametrize("seed", range(100))
    def test_many_seeds_all_valid(self, seed):
        tree = random_tree(GenSpec(genus=3, max_components=3, seed=seed))
        assert validate(tree.to_data()).ok
        assert tree.genus == 3
        assert len(tree.ids) <= 3

    def test_deterministic(self):
        spec = GenSpec(genus=7, max_components=6, seed=123456789)
        assert random_tree(spec) == random_tree(spec)
        assert random_tree(spec).to_data() == random_tree(spec).to_data()

    def test_forced_half_split_always_on_locus(self):
        for seed in range(40):
            tree = random_tree(
                GenSpec(genus=6, max_components=5, seed=seed, force_delta_half=True)
            )
            assert is_in_delta_half(tree)
            assert tree.genus == 6

    def test_bounds_respected(self, corpus500):
        for tree in corpus500[:100]:
            assert validate(tree.to_data()).ok


class TestUnsatisfiable:
    def test_odd_genus_half_split(self):
        with pytest.raises(UnsatisfiableSpecError):
            random_tree(GenSpec(genus=5, max_components=4, seed=0, force_delta_half=True))

    def test_half_split_needs_two_components(self):
        with pytest.raises(UnsatisfiableSpecError):
            random_tree(GenSpec(genus=4, max_components=1, seed=0, force_delta_half=True))

    def test_genus_below_two(self):
        with pytest.raises(UnsatisfiableSpecError):
            random_tree(GenSpec(genus=1, max_components=3, seed=0))

    def test_nonpositive_component_budget(self):
        with pytest.raises(UnsatisfiableSpecError):
            random_tree(GenSpec(genus=4, max_components=0, seed=0))


def quadratic_piece(rng, genus, max_components):
    """The former repair loop: rescan every live vertex for each contraction."""
    n = rng.randint(1, max_components)
    genera = [0] * n
    order = list(range(n))
    rng.shuffle(order)
    for v in order[: min(n, genus)]:
        genera[v] = 1
    for _ in range(genus - min(n, genus)):
        genera[rng.randrange(n)] += 1
    adjacency = {i: set() for i in range(n)}
    for a, b in generator._prufer_edges(rng, n):
        adjacency[a].add(b)
        adjacency[b].add(a)

    alive = set(range(n))
    while True:
        bad = next(
            (v for v in sorted(alive) if genera[v] == 0 and len(adjacency[v]) < 3),
            None,
        )
        if bad is None:
            break
        target = rng.choice(sorted(adjacency[bad]))
        for other in adjacency[bad] - {target}:
            adjacency[other].discard(bad)
            adjacency[other].add(target)
            adjacency[target].add(other)
        adjacency[target].discard(bad)
        genera[target] += genera[bad]
        del adjacency[bad]
        alive.remove(bad)

    relabel = {old: new for new, old in enumerate(sorted(alive))}
    out_genera = [genera[old] for old in sorted(alive)]
    out_edges = sorted(
        (min(relabel[a], relabel[b]), max(relabel[a], relabel[b]))
        for a in adjacency
        for b in adjacency[a]
        if a < b
    )
    return out_genera, out_edges


class TestRepairLoop:
    @pytest.mark.parametrize("genus", range(2, 10))
    def test_heap_matches_the_quadratic_scan(self, genus):
        for size in range(2, 31):
            for seed in range(40):
                fast, slow = random.Random(seed), random.Random(seed)
                expected = quadratic_piece(slow, genus, size)
                assert generator._random_piece(fast, genus, size) == expected, (genus, size, seed)
                assert fast.getstate() == slow.getstate()

    @pytest.mark.parametrize("genus", [2, 5, 60])
    def test_heap_matches_on_large_pieces(self, genus):
        for size in (200, 1000):
            for seed in range(3):
                fast, slow = random.Random(seed), random.Random(seed)
                expected = quadratic_piece(slow, genus, size)
                assert generator._random_piece(fast, genus, size) == expected, (size, seed)
