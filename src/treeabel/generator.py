"""Deterministic random generation of valid curve trees for property tests.

Generation draws a random tree shape (Prufer decoding), sprinkles the
genus over the vertices, then repairs stability by contracting genus-0
vertices of degree below three into a neighbour.  Uniformity over
isomorphism classes is a non-goal; determinism and coverage are the point,
so all randomness comes from one seeded generator and the repair always
contracts the smallest bad vertex first.
"""

from __future__ import annotations

import heapq
import random

from .curves import CurveTree, _Value


class UnsatisfiableSpecError(ValueError):
    """The requested combination of genus and shape cannot exist."""


class GenSpec(_Value):
    __match_args__ = ("genus", "max_components", "seed", "force_delta_half")

    def __init__(self, genus: int, max_components: int, seed: int, force_delta_half: bool = False):
        self.__dict__.update(
            genus=genus, max_components=max_components, seed=seed, force_delta_half=force_delta_half
        )


def _prufer_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    if n <= 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = sorted(leaves)
    edges.append((u, w))
    return edges


def _random_piece(
    rng: random.Random, genus: int, max_components: int
) -> tuple[list[int], list[tuple[int, int]]]:
    """A stable genus-weighted tree piece: genera and edges on 0..k-1."""
    n = rng.randint(1, max_components)
    genera = [0] * n
    # seed as many distinct vertices as possible before sprinkling the rest,
    # otherwise most vertices come out genus 0 and get contracted away
    order = list(range(n))
    rng.shuffle(order)
    for v in order[: min(n, genus)]:
        genera[v] = 1
    for _ in range(genus - min(n, genus)):
        genera[rng.randrange(n)] += 1
    adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
    for a, b in _prufer_edges(rng, n):
        adjacency[a].add(b)
        adjacency[b].add(a)

    # Contracting a bad vertex into its neighbour can turn only that
    # neighbour bad, so a min-heap of candidates, checked when popped, always
    # yields the smallest bad vertex.  Listed in ascending order, it starts
    # out as a heap.
    candidates = [v for v in range(n) if genera[v] == 0 and len(adjacency[v]) < 3]
    while candidates:
        bad = heapq.heappop(candidates)
        if bad not in adjacency or genera[bad] or len(adjacency[bad]) >= 3:
            continue
        # genus >= 1 guarantees a lone vertex is never genus 0
        target = rng.choice(sorted(adjacency[bad]))
        for other in adjacency[bad] - {target}:
            adjacency[other].discard(bad)
            adjacency[other].add(target)
            adjacency[target].add(other)
        adjacency[target].discard(bad)
        genera[target] += genera[bad]
        del adjacency[bad]
        heapq.heappush(candidates, target)

    survivors = sorted(adjacency)
    relabel = {old: new for new, old in enumerate(survivors)}
    out_genera = [genera[old] for old in survivors]
    out_edges = sorted(
        (min(relabel[a], relabel[b]), max(relabel[a], relabel[b]))
        for a in adjacency
        for b in adjacency[a]
        if a < b
    )
    return out_genera, out_edges


def random_tree(spec: GenSpec) -> CurveTree:
    """Generate a valid stable compact-type tree; same spec, same tree."""
    if spec.genus < 2:
        raise UnsatisfiableSpecError(f"genus must be >= 2, got {spec.genus}")
    if spec.max_components < 1:
        raise UnsatisfiableSpecError(
            f"max_components must be >= 1, got {spec.max_components}"
        )
    if spec.force_delta_half:
        if spec.genus % 2:
            raise UnsatisfiableSpecError(
                f"a genus-g/2 splitting needs even genus, got {spec.genus}"
            )
        if spec.max_components < 2:
            raise UnsatisfiableSpecError(
                "a genus-g/2 splitting needs at least 2 components"
            )

    rng = random.Random(spec.seed)
    if spec.force_delta_half:
        half = spec.genus // 2
        left_genera, left_edges = _random_piece(rng, half, (spec.max_components + 1) // 2)
        right_genera, right_edges = _random_piece(rng, half, spec.max_components // 2)
        offset = len(left_genera)
        genera = left_genera + right_genera
        edges = list(left_edges)
        edges += [(a + offset, b + offset) for a, b in right_edges]
        edges.append((rng.randrange(len(left_genera)), offset + rng.randrange(len(right_genera))))
        edges.sort()
    else:
        genera, edges = _random_piece(rng, spec.genus, spec.max_components)

    components = [(f"C{i + 1}", genus) for i, genus in enumerate(genera)]
    nodes = [(f"n{i + 1}", f"C{a + 1}", f"C{b + 1}") for i, (a, b) in enumerate(edges)]
    return CurveTree.build(components, nodes)
