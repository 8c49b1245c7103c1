from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import treeabel
from test_scale import chain, star
from treeabel import (
    CurveTree,
    GenSpec,
    InvalidTreeError,
    Subcurve,
    curves,
    e_sequence,
    enumerate_quasistable,
    is_quasistable,
    random_tree,
    validate,
)


def data(components, nodes):
    return {
        "components": [{"id": cid, "genus": g} for cid, g in components],
        "nodes": [{"id": nid, "ends": [a, b]} for nid, a, b in nodes],
    }


class TestValidate:
    def test_smallest_stable_shape_is_ok(self):
        report = validate(data([("C1", 2), ("C2", 2)], [("n", "C1", "C2")]))
        assert report.ok

    def test_genus_zero_leaf_violates_stability(self):
        report = validate(
            data([("C1", 2), ("C2", 0)], [("n", "C1", "C2")])
        )
        assert not report.ok
        assert any("stability" in v and "C2" in v for v in report.violations)

    def test_double_edge_is_not_a_tree(self):
        report = validate(
            data([("C1", 2), ("C2", 2)], [("n1", "C1", "C2"), ("n2", "C1", "C2")])
        )
        assert not report.ok
        assert any("not a tree" in v for v in report.violations)

    def test_disconnected_graph_is_not_a_tree(self):
        report = validate(
            data(
                [("C1", 2), ("C2", 2), ("C3", 2), ("C4", 2)],
                [("n1", "C1", "C2"), ("n2", "C3", "C4"), ("n3", "C1", "C2")],
            )
        )
        assert not report.ok
        assert any("not a tree" in v for v in report.violations)

    def test_cycle_beside_an_isolated_component_is_disconnected(self):
        report = validate(
            data(
                [("C1", 2), ("C2", 2), ("C3", 2), ("C4", 2)],
                [("n1", "C1", "C2"), ("n2", "C2", "C3"), ("n3", "C3", "C1")],
            )
        )
        assert report.violations == ("not a tree: graph is disconnected",)

    def test_self_loop_rejected(self):
        report = validate(data([("C1", 2), ("C2", 2)], [("n", "C1", "C1")]))
        assert any("self-loop" in v and "n" in v for v in report.violations)

    def test_duplicate_and_dangling_reported_not_repaired(self):
        report = validate(
            data([("C1", 2), ("C1", 2)], [("n", "C1", "C9")])
        )
        assert any("duplicate component id 'C1'" in v for v in report.violations)
        assert any("unknown component 'C9'" in v for v in report.violations)

    def test_total_genus_below_two_rejected(self):
        report = validate(data([("C1", 1)], []))
        assert any("total genus" in v for v in report.violations)

    @pytest.mark.parametrize(
        "payload",
        [
            {"components": [], "nodes": [], "extra": 1},
            {"components": [{"id": "C1", "genus": 2, "color": "red"}], "nodes": []},
            {"components": [{"id": "C1", "genus": -1}], "nodes": []},
            {"components": [{"id": "C1", "genus": 2.0}], "nodes": []},
            {"components": [{"id": "C1", "genus": True}], "nodes": []},
            {"components": [{"id": "C1", "genus": 2}]},
            {"components": [{"id": "C1", "genus": 2}], "nodes": [{"id": "n", "ends": ["C1"]}]},
            {"components": [{"id": "C1", "genus": 2}], "nodes": [{"id": "n"}]},
            [1, 2, 3],
        ],
    )
    def test_malformed_shapes_rejected(self, payload):
        assert not validate(payload).ok

    def test_construction_of_invalid_tree_raises(self):
        with pytest.raises(InvalidTreeError) as err:
            CurveTree.build([("C1", 2), ("C2", 0)], [("n", "C1", "C2")])
        assert not err.value.report.ok

    def test_from_data_round_trip(self, chain111):
        assert CurveTree.from_data(chain111.to_data()) == chain111


# One input per violation kind, shape and structure, with the violations
# validate reported when it ran the shape parse and the structural checks
# itself, before it became the report of from_data.
REPORT_TABLE = [
    ([1, 2, 3], ["tree data must be a JSON object"]),
    ({"components": [], "nodes": [], "extra": 1}, ["unknown key 'extra'"]),
    ({"components": [{"id": "C1", "genus": 2}]}, ["missing key 'nodes'"]),
    ({"components": "C1", "nodes": []}, ["'components' must be a list"]),
    (
        {
            "components": [
                {"id": "C1", "genus": 2, "color": "red"},
                {"id": 7, "genus": 1},
                {"id": "C3", "genus": -1},
            ],
            "nodes": "n",
        },
        [
            "component entry 0 must be an object with keys id, genus",
            "component entry 1 has a non-string id",
            "component 'C3' genus must be a non-negative integer",
            "'nodes' must be a list",
        ],
    ),
    (
        {
            "components": [{"id": "C1", "genus": 2.0}, {"id": "C2", "genus": True}],
            "nodes": [
                {"id": "n"},
                {"id": "", "ends": ["C1", "C2"]},
                {"id": "m", "ends": ["C1"]},
                {"id": "k", "ends": "C1C2"},
            ],
        },
        [
            "component 'C1' genus must be a non-negative integer",
            "component 'C2' genus must be a non-negative integer",
            "node entry 0 must be an object with keys id, ends",
            "node entry 1 has a non-string id",
            "node 'm' ends must be a pair of component ids",
            "node 'k' ends must be a pair of component ids",
        ],
    ),
    (
        data([("C1", 2), ("C2", 0)], [("n", "C1", "C2")]),
        ["stability: genus-0 component 'C2' needs >=3 nodes, has 1"],
    ),
    (
        data([("C1", 2), ("C2", 2)], [("n1", "C1", "C2"), ("n2", "C1", "C2")]),
        ["not a tree: 2 nodes on 2 components"],
    ),
    (
        data(
            [("C1", 2), ("C2", 2), ("C3", 2), ("C4", 2)],
            [("n1", "C1", "C2"), ("n2", "C3", "C4"), ("n3", "C1", "C2")],
        ),
        ["not a tree: graph is disconnected"],
    ),
    (data([("C1", 2), ("C2", 2)], [("n", "C1", "C1")]), ["node 'n' is a self-loop on component 'C1'"]),
    (
        data([("C1", 2), ("C1", 2)], [("n", "C1", "C9")]),
        ["duplicate component id 'C1'", "node 'n' references unknown component 'C9'"],
    ),
    (data([("C1", 1)], []), ["total genus 1 is less than 2"]),
    (data([], []), ["tree has no components"]),
    (
        data([("C1", 1), ("C2", 0), ("C3", 1)], [("n", "C1", "C2"), ("n", "C2", "C3")]),
        ["duplicate node id 'n'", "stability: genus-0 component 'C2' needs >=3 nodes, has 2"],
    ),
]


def two_pass_violations(payload) -> tuple[str, ...]:
    """The former validate: the shape parse, then the structural checks on its result."""
    violations, components, nodes = curves._shape_violations(payload)
    if violations:
        return tuple(violations)
    violations, index = curves._index_structure(components, nodes)
    assert bool(index) != bool(violations)
    return tuple(violations)


class TestOneParse:
    @pytest.mark.parametrize("payload, expected", REPORT_TABLE)
    def test_validate_is_the_report_from_data_raises(self, payload, expected):
        with pytest.raises(InvalidTreeError) as err:
            CurveTree.from_data(payload)
        assert err.value.report.violations == tuple(expected)
        assert validate(payload).violations == tuple(expected)
        assert two_pass_violations(payload) == tuple(expected)
        assert str(err.value) == "; ".join(expected)

    def test_valid_tree_has_an_empty_report(self, corpus500):
        for tree in corpus500[:50]:
            payload = tree.to_data()
            assert validate(payload) == curves.ValidationReport()
            assert two_pass_violations(payload) == ()

    def test_one_shape_parse_and_one_structural_check(self, monkeypatch, chain1111):
        calls = {"shape": 0, "structure": 0}

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(curves, "_shape_violations", counted("shape", curves._shape_violations))
        monkeypatch.setattr(
            curves, "_index_structure", counted("structure", curves._index_structure)
        )
        tree = CurveTree.from_data(chain1111.to_data())
        assert tree == chain1111
        assert calls == {"shape": 1, "structure": 1}
        # the rooted index is in place before anything asks for it
        assert tree.__dict__.keys() >= {"ids", "_edges", "_edge_position", "_order", "_parent"}
        assert tree._order == (0, 1, 2, 3) and tree._parent == (-1, 0, 1, 2)
        assert "tails" not in tree.__dict__
        assert len(tree.tails) == 6 and tree.tails_at("n2") == tree.tails[2:4]
        assert calls == {"shape": 1, "structure": 1}
        assert validate(chain1111.to_data()).ok
        assert calls == {"shape": 2, "structure": 2}

    def test_index_matches_the_listing(self, corpus500):
        for tree in corpus500[:50]:
            assert tree.ids == tuple(sorted(c.id for c in tree.components))
            assert [tree.genus_of(c.id) for c in tree.components] == [
                c.genus for c in tree.components
            ]
            assert [tree.node_ends(node.id) for node in tree.nodes] == [
                node.ends for node in tree.nodes
            ]
            order, parent = tree._order, tree._parent
            assert sorted(order) == list(range(len(tree.ids))) and parent[order[0]] == -1
            seen = {order[0]}
            for v in order[1:]:
                assert parent[v] in seen
                seen.add(v)
            edges = {frozenset(tree.node_ends(node.id)) for node in tree.nodes}
            assert {frozenset((tree.ids[v], tree.ids[parent[v]])) for v in order[1:]} == edges


UNKNOWN_COMPONENT_CALLS = {
    "genus_of": lambda tree: tree.genus_of("ZZ"),
    "contains": lambda tree: tree.contains(tree.full, "ZZ"),
    "unit_multidegree": lambda tree: tree.unit_multidegree("ZZ"),
    "avoids": lambda tree: tree.avoids("ZZ"),
    "e1": lambda tree: treeabel.e1(tree, "ZZ"),
    "e_sequence": lambda tree: treeabel.e_sequence(tree, "ZZ", 3),
    "abel_d": lambda tree: treeabel.abel_d(tree, "ZZ", [treeabel.SmoothPoint("C2", "p")]),
    "abel1": lambda tree: treeabel.abel1(tree, "ZZ", treeabel.SmoothPoint("C2", "p")),
    "small_tails": lambda tree: treeabel.small_tails(tree, "ZZ"),
    "is_quasistable": lambda tree: treeabel.is_quasistable(tree, tree.zero_multidegree(), "ZZ"),
    "enumerate_quasistable": lambda tree: treeabel.enumerate_quasistable(tree, 2, "ZZ"),
    "twist_step": lambda tree: treeabel.twist_step(tree, tree.zero_multidegree(), "ZZ"),
}


@pytest.mark.parametrize("call", UNKNOWN_COMPONENT_CALLS.values(), ids=UNKNOWN_COMPONENT_CALLS)
def test_unknown_component_is_named(call, chain111):
    with pytest.raises(KeyError) as err:
        call(chain111)
    assert err.value.args == ("unknown component 'ZZ'",)


class TestGenus:
    def test_two_components(self, two22):
        assert two22.genus == 4

    def test_single_component(self):
        tree = CurveTree.build([("C1", 3)])
        assert tree.genus == 3

    def test_chain_matches_euler_count(self, chain111):
        # cross-check: sum of genera equals g from 1 - chi bookkeeping
        assert chain111.genus == 3
        assert chain111.genus == sum(c.genus for c in chain111.components) + len(
            chain111.nodes
        ) - len(chain111.components) + 1


class TestSubcurves:
    def test_k_chain_interior(self, chain111):
        assert chain111.k(chain111.subcurve(["C2"])) == 2

    def test_k_chain_leaf(self, chain111):
        assert chain111.k(chain111.subcurve(["C1"])) == 1

    def test_k_star_center(self, star):
        assert star.k(star.subcurve(["C0"])) == 3

    def test_omega_degree_tail(self, two22):
        assert two22.omega_degree(two22.subcurve(["C2"])) == 3

    def test_omega_degree_whole_curve(self, two22):
        assert two22.omega_degree(two22.full) == 2 * two22.genus - 2 == 6

    def test_omega_degree_disconnected(self, chain111):
        sub = chain111.subcurve(["C1", "C3"])
        assert chain111.omega_degree(sub) == 2

    def test_subcurve_genus(self, two22, chain111):
        assert two22.subcurve_genus(two22.subcurve(["C1"])) == 2
        assert chain111.subcurve_genus(chain111.subcurve(["C1", "C2"])) == 2
        assert chain111.subcurve_genus(chain111.full) == chain111.genus

    def test_complement_and_members(self, chain111):
        sub = chain111.subcurve(["C2"])
        assert chain111.members(chain111.complement(sub)) == ("C1", "C3")


class TestTails:
    def test_one_node_gives_two_tails(self, two22):
        assert len(two22.tails) == 2

    def test_chain_tails_listed_in_canonical_order(self, chain111):
        listed = [(t.node, chain111.members(t.side)) for t in chain111.tails]
        assert listed == [
            ("n1", ("C1",)),
            ("n1", ("C2", "C3")),
            ("n2", ("C3",)),
            ("n2", ("C1", "C2")),
        ]

    def test_star_has_six_tails(self, star):
        assert len(star.tails) == 2 * len(star.nodes) == 6

    def test_tail_pair_partitions_components(self, chain1111):
        for node in chain1111.nodes:
            a, b = chain1111.tails_at(node.id)
            assert a.side == chain1111.complement(b.side)

    def test_tail_genus_pairs_sum_to_genus(self, star):
        for node in star.nodes:
            a, b = star.tails_at(node.id)
            assert star.subcurve_genus(a.side) + star.subcurve_genus(b.side) == star.genus

    def test_tail_omega_pairs_sum_to_canonical_degree(self, chain1111):
        for node in chain1111.nodes:
            a, b = chain1111.tails_at(node.id)
            assert (
                chain1111.omega_degree(a.side) + chain1111.omega_degree(b.side)
                == 2 * chain1111.genus - 2
            )

    def test_pairs_ordered_by_node_then_size_then_members(self, corpus500, chain1111):
        # chain1111's middle node splits it into two equal halves
        for tree in [chain1111, *corpus500]:
            firsts, seconds = tree.tails[::2], tree.tails[1::2]
            assert [t.node for t in firsts] == sorted(node.id for node in tree.nodes)
            for a, b in zip(firsts, seconds):
                assert a.node == b.node and a.side == tree.complement(b.side)
                assert (a.side.mask.bit_count(), tree.members(a.side)) < (
                    b.side.mask.bit_count(),
                    tree.members(b.side),
                )

    def test_tail_sums_match_per_subcurve_sums(self, corpus500):
        rng = random.Random(3)
        for tree in corpus500[:150]:
            values = [rng.randint(-5, 5) for _ in tree.ids]
            md = tree.multidegree(values)
            assert tree.tail_sums(values) == tuple(md.on(t.side) for t in tree.tails)
            assert tree.tail_genera == tuple(tree.subcurve_genus(t.side) for t in tree.tails)

    def test_tail_end_positions_match_tail_ends(self, corpus500):
        for tree in corpus500[:150]:
            for tail, (inside, outside) in zip(tree.tails, tree.tail_end_positions):
                assert tree.tail_ends(tail) == (tree.ids[inside], tree.ids[outside])


def assert_avoids_match_tail_masks(tree):
    for cid in tree.ids:
        avoids = tree.avoids(cid)
        for i, tail in enumerate(tree.tails):
            assert avoids[i] == (not tree.contains(tail.side, cid)), (tree.to_data(), cid, i)


class TestRootPathAvoids:
    """X's side of every node comes from X's path to the root; the tail masks referee it."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        spec=st.builds(
            GenSpec,
            genus=st.integers(2, 20),
            max_components=st.integers(2, 12),
            seed=st.integers(0, 2**32),
        )
    )
    def test_matches_tail_masks(self, spec):
        assert_avoids_match_tail_masks(random_tree(spec))

    @pytest.mark.parametrize("build, size", [(chain, 1001), (star, 40)], ids=["chain1001", "star40"])
    def test_matches_tail_masks_at_scale(self, build, size):
        assert_avoids_match_tail_masks(build(size))

    def test_hot_path_takes_no_unit_tail_sums(self, corpus500, monkeypatch):
        cases = []
        for tree in corpus500[:30]:
            # the cached tail data is read once per tree, before any query
            tree.tail_genera, tree.tail_end_positions
            mds = [md for cid in tree.ids for md in e_sequence(tree, cid, 5)]
            cases.append((tree, mds, self.answers(tree, mds)))

        def refuse(*args):
            raise AssertionError("unit-vector tail sums on the hot path")

        monkeypatch.setattr(CurveTree, "tail_sums", refuse)
        monkeypatch.setattr(CurveTree, "unit_multidegree", refuse)
        for tree, mds, answers in cases:
            assert self.answers(tree, mds) == answers

    @staticmethod
    def answers(tree, mds):
        """avoids, is_quasistable on mds, enumerate_quasistable and e_sequence, per component."""
        return [
            (
                tree.avoids(cid),
                [is_quasistable(tree, md, cid) for md in mds],
                [enumerate_quasistable(tree, d, cid) for d in range(5)],
                e_sequence(tree, cid, 6),
            )
            for cid in tree.ids
        ]


class TestConnectedSubcurves:
    def test_connected_parts_match_oracle(self, corpus500):
        rng = random.Random(5)
        for tree in corpus500[:150]:
            _, edges = oracles.tree_data(tree)
            for _ in range(10):
                sub = Subcurve(rng.randrange(1, 1 << len(tree.ids)))
                parts = tree.connected_parts(sub)
                expected = oracles.connected_parts(edges, frozenset(tree.members(sub)))
                assert {frozenset(tree.members(p)) for p in parts} == set(expected)
                assert len(parts) == len(expected)
                lowest = [p.mask & -p.mask for p in parts]
                assert lowest == sorted(lowest)

    def test_k_symmetric_under_complement(self, corpus500):
        for tree in corpus500[:120]:
            for sub in oracles.connected_subcurves(tree):
                assert tree.k(sub) == tree.k(tree.complement(sub))


class TestMultidegree:
    def test_total_and_restriction(self, chain111):
        md = chain111.multidegree({"C1": 2, "C2": -1, "C3": 1})
        assert md.total == 2
        assert md.on(chain111.subcurve(["C1", "C3"])) == 3

    def test_arithmetic(self, two22):
        a = two22.multidegree((1, 0))
        b = two22.multidegree((0, 1))
        assert (a + b).degrees == (1, 1)
        assert (a - b).degrees == (1, -1)
        assert a.scaled(-2).degrees == (-2, 0)

    def test_mapping_rejects_unknown_component(self, two22):
        with pytest.raises(KeyError):
            two22.multidegree({"C9": 1})

    def test_sequence_length_checked(self, two22):
        with pytest.raises(ValueError):
            two22.multidegree((1, 0, 0))
