from __future__ import annotations

import importlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from treeabel import (
    ComparisonReport,
    CurveTree,
    DivisorRep,
    GenSpec,
    InvalidTreeError,
    NodePoint,
    SmoothPoint,
    TwistDelta,
    abel_d,
    big_tails,
    compare_principals,
    e_sequence,
    is_quasistable,
    is_semistable,
    multidegree_difference_support,
    random_tree,
    twist_delta,
)


class TestComparePrincipals:
    def test_balanced_pair(self, two22):
        report = compare_principals(two22, 2)
        assert (report.x1, report.x2) == ("C1", "C2")
        assert report.eta == (1, 0)
        assert [md.degrees for md in report.e1_sequence] == [(1, 0), (1, 1)]
        assert [md.degrees for md in report.e2_sequence] == [(0, 1), (1, 1)]
        assert report.ok

    def test_eta_starts_at_one(self, delta50):
        for tree in delta50[:10]:
            assert compare_principals(tree, 1).eta == (1,)

    def test_four_chain(self, chain1111):
        report = compare_principals(chain1111, 3)
        assert (report.x1, report.x2) == ("C2", "C3")
        assert chain1111.members(report.y2.side) == ("C3", "C4")
        assert chain1111.members(report.y1.side) == ("C1", "C2")
        assert report.eta == (1, 0, 1)
        assert [md.degrees for md in report.e1_sequence] == [
            (0, 1, 0, 0),
            (0, 1, 1, 0),
            (0, 2, 1, 0),
        ]
        assert [md.degrees for md in report.e2_sequence] == [
            (0, 0, 1, 0),
            (0, 1, 1, 0),
            (0, 1, 2, 0),
        ]

    def test_unstable_dumbbell_cannot_be_built(self):
        with pytest.raises(InvalidTreeError):
            CurveTree.build(
                [("C1", 2), ("C2", 0), ("C3", 2)],
                [("n1", "C1", "C2"), ("n2", "C2", "C3")],
            )

    def test_precondition_rejected_off_locus(self, g31):
        with pytest.raises(ValueError):
            compare_principals(g31, 2)

    def test_twist_relation_measured_directly(self, delta50):
        for tree in delta50[:20]:
            report = compare_principals(tree, 6)
            step = twist_delta(tree, report.y2, 1).multidegree
            for d in range(1, 7):
                diff = report.e1_sequence[d - 1] - report.e2_sequence[d - 1]
                assert diff == step.scaled(report.eta[d - 1])

    def test_sequences_stay_quasistable_for_their_choice(self, delta50):
        for tree in delta50[:20]:
            report = compare_principals(tree, 6)
            for d in range(1, 7):
                assert is_quasistable(tree, report.e1_sequence[d - 1], report.x1)
                assert is_quasistable(tree, report.e2_sequence[d - 1], report.x2)
                if report.eta[d - 1] != 0:
                    assert is_semistable(tree, report.e1_sequence[d - 1]).semistable
                    assert is_semistable(tree, report.e2_sequence[d - 1]).semistable

    def test_y_tails_are_complementary_at_shared_node(self, delta50):
        for tree in delta50[:20]:
            report = compare_principals(tree, 2)
            assert report.y1.node == report.y2.node
            assert report.y1.side == tree.complement(report.y2.side)
            g = tree.genus
            assert 2 * tree.subcurve_genus(report.y1.side) == g
            assert 2 * tree.subcurve_genus(report.y2.side) == g


    def test_fresh_tree_builds_only_the_two_output_tails(self, delta50):
        for tree in delta50[:10]:
            fresh = CurveTree.from_data(tree.to_data())
            report = compare_principals(fresh, 4)
            assert "tails" not in fresh.__dict__
            assert report == compare_principals(tree, 4)
            assert {report.y1, report.y2} == set(tree.tails_at(report.y1.node))


class TestDifferenceSupport:
    def test_two_components_vacuous(self, two22):
        report = compare_principals(two22, 3)
        assert multidegree_difference_support(two22, report)

    def test_four_chain(self, chain1111):
        report = compare_principals(chain1111, 6)
        assert multidegree_difference_support(chain1111, report)

    def test_corpus_sweep(self, delta50):
        for tree in delta50:
            report = compare_principals(tree, 8)
            assert multidegree_difference_support(tree, report)


class TestHalfGenusTail:
    def test_direct_eps_is_big_tail_membership(self, delta50):
        for tree in delta50:
            report = compare_principals(tree, 40)
            for d in range(1, 41):
                e1, e2 = report.e1_sequence[d - 1], report.e2_sequence[d - 1]
                eps1 = report.y2 in big_tails(tree, e1, report.x1)
                eps2 = report.y1 in big_tails(tree, e2, report.x2)
                assert (2 * e1.on(report.y2.side) < d) == eps1
                assert (2 * e2.on(report.y1.side) < d) == eps2
            assert report.eta == oracles.eta_recursion(tree, report.x1, report.x2, 40)

    def test_internal_check_message_rebuilds_the_tree(self, monkeypatch, two22):
        module = importlib.import_module("treeabel.compare")
        real = module.twist_delta

        def no_step(tree, tail, sign):
            delta = real(tree, tail, sign)
            return TwistDelta(delta.tail, tree.zero_multidegree(), delta.divisor)

        monkeypatch.setattr(module, "twist_delta", no_step)
        with pytest.raises(RuntimeError) as err:
            compare_principals(two22, 3)
        message = str(err.value)
        assert message.startswith(
            "internal check failed: twist relation broken at degree 1 "
            "for principal components 'C1', 'C2'; tree: "
        )
        rebuilt = CurveTree.from_data(json.loads(message.split("; tree: ", 1)[1]))
        monkeypatch.undo()
        assert compare_principals(rebuilt, 3) == compare_principals(two22, 3)


half_genus_specs = st.builds(
    GenSpec,
    genus=st.integers(1, 10).map(lambda half: 2 * half),
    max_components=st.integers(2, 21),
    seed=st.integers(0, 2**32),
    force_delta_half=st.just(True),
)


class TestAgainstOracles:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=half_genus_specs, dmax=st.integers(1, 40))
    def test_report_is_rebuilt_from_the_paper_construction(self, spec, dmax):
        tree = random_tree(spec)
        report = compare_principals(tree, dmax)
        x1, x2 = oracles.semicentral_bruteforce(*oracles.tree_data(tree))
        y1 = oracles.half_genus_tail_scan(tree, x2)
        y2 = oracles.half_genus_tail_scan(tree, x1)
        eta = oracles.eta_recursion(tree, x1, x2, dmax)
        assert report.eta == eta == tuple(d % 2 for d in range(1, dmax + 1))
        assert (report.y1, report.y2) == (y1, y2)
        assert report == ComparisonReport(
            x1, x2, y1, y2, eta, True, e_sequence(tree, x1, dmax), e_sequence(tree, x2, dmax)
        )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=half_genus_specs, data=st.data(), d=st.integers(1, 12))
    def test_the_two_images_differ_by_one_translation(self, spec, data, d):
        # abel_d(X1, P) = abel_d(X2, P) + (d mod 2) D(Y2) for every configuration P
        tree = random_tree(spec)
        x1, x2 = oracles.semicentral_bruteforce(*oracles.tree_data(tree))
        y2 = oracles.half_genus_tail_scan(tree, x1)
        points = [NodePoint(n.id) for n in tree.nodes]
        points += [SmoothPoint(cid, label) for cid in tree.ids for label in ("p", "q")]
        config = tuple(data.draw(st.lists(st.sampled_from(points), min_size=d, max_size=d)))
        acc = dict(abel_d(tree, x2, config).coeffs)
        for sym, c in twist_delta(tree, y2, 1).divisor.coeffs:
            acc[sym] = acc.get(sym, 0) + (d % 2) * c
        assert abel_d(tree, x1, config) == DivisorRep.from_mapping(acc)
