"""Large trees through every tail-indexed layer, with no timing assertion.

A chain of 1,001 components and a 40-leaf star on a genus-0 hub.  The star
has 2^40 connected subcurves, so only per-node work can finish on it; the
chain checks that nothing is quadratic or worse in the number of nodes, and
carries 200 degrees of e_d and a 200-point Abel image.  The generator's
stability repair runs on a 10^5-vertex random shape.  On a fresh 20,000
component chain, the traced memory peak of an Abel image, a comparison
and one node's tails is bounded: none may build all of the Theta(n^2)-bit
tail masks, which alone take over 100 MB there.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

from treeabel import (
    CurveTree,
    GenSpec,
    NodePoint,
    SmoothPoint,
    abel_d,
    classify,
    compare_principals,
    e_sequence,
    enumerate_quasistable,
    is_quasistable,
    is_semistable,
    random_tree,
    small_tail_at_node,
)


def chain(n: int) -> CurveTree:
    return CurveTree.build(
        [(f"C{i:04d}", 1) for i in range(n)],
        [(f"n{i:04d}", f"C{i:04d}", f"C{i + 1:04d}") for i in range(n - 1)],
    )


def star(leaves: int) -> CurveTree:
    return CurveTree.build(
        [("H", 0)] + [(f"L{i:02d}", 1) for i in range(leaves)],
        [(f"n{i:02d}", "H", f"L{i:02d}") for i in range(leaves)],
    )


@pytest.fixture(scope="module", params=["chain1001", "star40"])
def large(request):
    # (tree, a genus-1 end component, a node, the expected principal component)
    if request.param == "chain1001":
        return chain(1001), "C0000", "n0250", "C0500"
    return star(40), "L00", "n07", "H"


def test_every_layer_runs(large):
    tree, end, node, principal = large
    assert len(tree.tails) == 2 * len(tree.nodes)
    report = classify(tree)
    assert report.central == (principal,) and report.principal == principal

    (md,) = enumerate_quasistable(tree, 3, principal)
    assert md.total == 3
    assert is_quasistable(tree, md, principal)

    moved = md + tree.unit_multidegree(end) - tree.unit_multidegree(principal)
    verdict = is_semistable(tree, moved)
    assert not verdict.semistable
    tail_sides = {tail.side for tail in tree.tails}
    assert all(sub in tail_sides for sub, _ in verdict.witnesses)
    assert (tree.subcurve([end]), "upper") in verdict.witnesses

    seq = e_sequence(tree, principal, 5)
    assert [e.total for e in seq] == [1, 2, 3, 4, 5]
    assert seq[2] == md

    points = (SmoothPoint(end, "p"), NodePoint(node), SmoothPoint(principal, "q"), NodePoint(node))
    assert abel_d(tree, principal, points).multidegree(tree) == seq[3]


@pytest.fixture(scope="module")
def chain1001():
    return chain(1001)


def test_e_sequence_to_degree_200(chain1001):
    # the principal component is central, so e_d is the X-quasistable multidegree
    seq = e_sequence(chain1001, "C0500", 200)
    assert len(seq) == 200
    for d, md in enumerate(seq, start=1):
        assert (md,) == enumerate_quasistable(chain1001, d, "C0500")


def test_abel_d_on_200_points(chain1001):
    rng = random.Random(1001)
    points = tuple(
        NodePoint(f"n{rng.randrange(1000):04d}")
        if rng.random() < 0.3
        else SmoothPoint(f"C{rng.randrange(1001):04d}", f"p{rng.randrange(3)}")
        for _ in range(200)
    )
    image = abel_d(chain1001, "C0500", points)
    assert image.multidegree(chain1001) == enumerate_quasistable(chain1001, 200, "C0500")[0]


def test_generator_repairs_a_100k_vertex_shape():
    # seed 26 draws a shape of 97,949 vertices, nearly all contracted away
    tree = random_tree(GenSpec(genus=40, max_components=100_000, seed=26))
    assert tree.genus == 40 and len(tree.ids) <= 2 * 40 - 2


def traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_abel_d_and_compare_memory_on_a_20k_chain():
    # a genus-1 chain of even length is a half-genus curve
    points = (
        SmoothPoint("C0000", "p"), NodePoint("n5000"), SmoothPoint("C9999", "q"), NodePoint("n5000")
    )
    tree = chain(20_000)
    assert traced_peak_mb(lambda: abel_d(tree, "C9999", points)) < 48
    tree = chain(20_000)
    assert traced_peak_mb(lambda: compare_principals(tree, 1)) < 48


def test_one_nodes_tails_memory_on_a_20k_chain():
    # only the two tails at the node are built, not all 2(n - 1) masks
    tree = chain(20_000)
    assert traced_peak_mb(lambda: tree.tails_at("n5000")) < 48
    tree = chain(20_000)
    assert traced_peak_mb(lambda: small_tail_at_node(tree, "C9999", "n5000")) < 48
    assert "tails" not in tree.__dict__
