"""Acceptance suite: one criterion per test, one printed verdict line each.

All checks are exact (integer arithmetic throughout); the only tolerances
are the wall-clock budgets on the enumeration-heavy criteria.
"""

from __future__ import annotations

import random
import time

import oracles
from treeabel import (
    Branch,
    CurveTree,
    DivisorRep,
    NodePoint,
    SmoothPoint,
    abel1,
    abel_d,
    chi_form_semistable_at,
    classify,
    compare_principals,
    e1,
    e_sequence,
    enumerate_quasistable,
    is_quasistable,
    is_semistable,
    is_semistable_at,
    principal_component,
    twist_delta,
    twist_step,
)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_degree_one_uniqueness(corpus200):
    start = time.perf_counter()
    ok = True
    for tree in corpus200:
        xpr = principal_component(tree)
        if enumerate_quasistable(tree, 1, xpr) != (e1(tree, xpr),):
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    verdict(1, ok, f"degree-1 quasistable set is exactly {{e1}} on 200 trees ({elapsed:.2f}s)")


def test_criterion_2_canonical_quasistability(corpus100):
    start = time.perf_counter()
    ok = True
    for tree in corpus100:
        xpr = principal_component(tree)
        seq = e_sequence(tree, xpr, 6)
        for d in range(1, 7):
            if seq[d - 1] not in enumerate_quasistable(tree, d, xpr):
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    verdict(2, ok, f"e_d enumerated as quasistable for d <= 6 on 100 trees ({elapsed:.2f}s)")


def test_criterion_3_two_component_dichotomy():
    ok = True
    for g1 in range(1, 7):
        for g2 in range(1, g1 + 1):
            tree = CurveTree.build([("C1", g1), ("C2", g2)], [("n", "C1", "C2")])
            g = g1 + g2
            expected = (1, 1) if 4 * g2 > g + 1 else (2, 0)
            if e_sequence(tree, "C1", 2)[1].degrees != expected:
                ok = False
    verdict(3, ok, "e_2 branch matches 4*g2 vs g+1 for all 1 <= g2 <= g1 <= 6")


def test_criterion_4_first_map_worked_example(two22):
    n = NodePoint("n")
    p, q = SmoothPoint("C1", "p"), SmoothPoint("C1", "q")
    p2, q2 = SmoothPoint("C2", "p'"), SmoothPoint("C2", "q'")
    expected = {
        "abel1(n)": (
            abel1(two22, "C1", n),
            oracles.abel1_stepwise(two22, "C1", n),
        ),
        "stepwise abel1(n)": (
            oracles.abel1_stepwise(two22, "C1", n),
            DivisorRep.from_mapping({Branch("n", "C1"): 1}),
        ),
        "both on C1": (
            abel_d(two22, "C1", (p, q)),
            DivisorRep.from_mapping(
                {p: 1, q: 1, Branch("n", "C1"): -1, Branch("n", "C2"): 1}
            ),
        ),
        "both on C2": (
            abel_d(two22, "C1", (p2, q2)),
            DivisorRep.from_mapping(
                {p2: 1, q2: 1, Branch("n", "C2"): -1, Branch("n", "C1"): 1}
            ),
        ),
        "mixed C1,C2": (
            abel_d(two22, "C1", (p, q2)),
            DivisorRep.from_mapping({p: 1, q2: 1}),
        ),
        "mixed C2,C1": (
            abel_d(two22, "C1", (p2, q)),
            DivisorRep.from_mapping({p2: 1, q: 1}),
        ),
    }
    ok = all(got == want for got, want in expected.values())
    ok = ok and abel_d(two22, "C1", (n, n)) == DivisorRep.from_mapping(
        {Branch("n", "C1"): 1, Branch("n", "C2"): 1}
    )
    verdict(4, ok, "first map at the node and all four degree-2 restriction cases")


def test_criterion_5_eta_bound(delta50):
    start = time.perf_counter()
    ok = True
    for tree in delta50:
        report = compare_principals(tree, 8)
        step = twist_delta(tree, report.y2, 1).multidegree
        for d in range(1, 9):
            eta = report.eta[d - 1]
            diff = report.e1_sequence[d - 1] - report.e2_sequence[d - 1]
            if eta not in (-1, 0, 1) or eta != d % 2 or diff != step.scaled(eta):
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    verdict(5, ok, f"eta_d = d mod 2 and twist relation on 50 half-genus trees ({elapsed:.2f}s)")


def _sampled_triples(corpus, count):
    rng = random.Random(97)
    produced = 0
    connected = {}
    while produced < count:
        index = rng.randrange(len(corpus))
        tree = corpus[index]
        d = rng.choice((0, 1, 2, 3, tree.genus - 1, tree.genus))
        genus_map, edges = oracles.tree_data(tree)
        box = oracles.degree_box(genus_map, edges, d, margin=1)
        values = [rng.choice(list(box[cid])) for cid in tree.ids[:-1]]
        values.append(d - sum(values))
        md = tree.multidegree(tuple(values))
        if index not in connected:
            connected[index] = oracles.connected_subcurves(tree)
        subs = connected[index]
        for _ in range(min(4, len(subs))):
            yield tree, md, subs[rng.randrange(len(subs))]
            produced += 1
            if produced >= count:
                return


def test_criterion_6_form_equivalence(corpus500):
    checked = 0
    ok = True
    for tree, md, sub in _sampled_triples(corpus500, 10_000):
        if is_semistable_at(tree, md, sub) != chi_form_semistable_at(tree, md, sub):
            ok = False
            break
        checked += 1
    verdict(6, ok and checked == 10_000, f"inequality form == chi form on {checked} triples")


def test_criterion_7_complement_symmetry(corpus500):
    checked = 0
    ok = True
    for tree, md, sub in _sampled_triples(corpus500, 10_000):
        if is_semistable_at(tree, md, sub) != is_semistable_at(
            tree, md, tree.complement(sub)
        ):
            ok = False
            break
        checked += 1
    verdict(7, ok and checked == 10_000, f"semistable at Y == at Y' on {checked} triples")


def test_criterion_8_connected_subcurve_sufficiency(small_trees):
    rng = random.Random(31)
    ok = True
    checked = 0
    for tree in small_trees:
        genus_map, edges = oracles.tree_data(tree)
        for d in range(0, 4):
            box = oracles.degree_box(genus_map, edges, d, margin=1)
            candidates = []
            for _ in range(6):
                values = [rng.choice(list(box[cid])) for cid in tree.ids[:-1]]
                values.append(d - sum(values))
                candidates.append(tree.multidegree(tuple(values)))
            for md in candidates:
                degrees = tree.multidegree_as_dict(md)
                if is_semistable(tree, md).semistable != oracles.semistable_all_subsets(
                    genus_map, edges, degrees
                ):
                    ok = False
                for cid in tree.ids:
                    if is_quasistable(tree, md, cid) != oracles.quasistable_all_subsets(
                        genus_map, edges, degrees, cid
                    ):
                        ok = False
                checked += 1
    verdict(8, ok, f"tail checks match all-subsets oracle ({checked} multidegrees)")


def test_criterion_9_component_classification(corpus500):
    ok = True
    for tree in corpus500:
        report = classify(tree)
        if len(report.central) > 1:
            ok = False
        if report.in_delta_half != (not report.central):
            ok = False
        if report.in_delta_half:
            if len(report.semicentral) != 2:
                ok = False
            else:
                a, b = report.semicentral
                if not any(set(node.ends) == {a, b} for node in tree.nodes):
                    ok = False
    verdict(9, ok, "at most one central; none iff half-genus node; then 2 adjacent semicentral (500 trees)")


def test_criterion_10_first_map_multidegree(corpus500):
    ok = True
    for tree in corpus500:
        xpr = principal_component(tree)
        unit = e1(tree, xpr)
        points = [NodePoint(node.id) for node in tree.nodes]
        points += [SmoothPoint(cid, "p") for cid in tree.ids]
        for point in points:
            image = abel1(tree, xpr, point)
            if image != oracles.abel1_stepwise(tree, xpr, point) or image.multidegree(tree) != unit:
                ok = False
    verdict(10, ok, "degree-1 images are the stepwise ones, of multidegree e1 (500 trees)")


def test_criterion_11_symmetry(corpus500):
    rng = random.Random(53)
    ok = True
    for tree in corpus500[:40]:
        xpr = principal_component(tree)
        size = rng.randint(2, 5)
        config = []
        for _ in range(size):
            if tree.nodes and rng.random() < 0.5:
                config.append(NodePoint(rng.choice(tree.nodes).id))
            else:
                config.append(SmoothPoint(rng.choice(tree.ids), f"p{rng.randrange(3)}"))
        image = abel_d(tree, xpr, tuple(config))
        for _ in range(20):
            shuffled = config[:]
            rng.shuffle(shuffled)
            if abel_d(tree, xpr, tuple(shuffled)) != image:
                ok = False
    verdict(11, ok, "degree-d image invariant under 20 shuffles per config (40 trees)")


def test_criterion_12_twist_preserves_quasistability(small_trees):
    ok = True
    checked = 0
    for tree in small_trees:
        for cid in tree.ids:
            for d in range(0, 5):
                for md in enumerate_quasistable(tree, d, cid):
                    stepped = twist_step(tree, md, cid)
                    if stepped.total != d + 1 or not is_quasistable(tree, stepped, cid):
                        ok = False
                    checked += 1
    verdict(12, ok, f"unit-plus-big-tail twists preserve quasistability ({checked} cases)")
