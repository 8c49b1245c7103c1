from __future__ import annotations

import importlib
import json

import pytest

import oracles
from treeabel import (
    CurveTree,
    central_components,
    classify,
    is_in_delta_half,
    principal_component,
    semicentral_components,
    small_tail_at_node,
    small_tails,
)


class TestCentral:
    def test_chain_center(self, chain111):
        assert central_components(chain111) == ("C2",)

    def test_equal_halves_have_no_central(self, two22):
        assert central_components(two22) == ()

    def test_unbalanced_pair(self, g31):
        assert central_components(g31) == ("C1",)

    def test_genus_zero_center_can_be_central(self, star0):
        assert central_components(star0) == ("C0",)
        assert principal_component(star0) == "C0"


class TestSemicentral:
    def test_equal_halves(self, two22):
        assert semicentral_components(two22) == ("C1", "C2")

    def test_chain(self, chain111):
        assert semicentral_components(chain111) == ("C2",)

    def test_unbalanced_pair(self, g31):
        assert semicentral_components(g31) == ("C1",)


class TestDeltaHalf:
    def test_equal_halves(self, two22):
        assert is_in_delta_half(two22)

    def test_unbalanced_pair(self, g31):
        assert not is_in_delta_half(g31)

    def test_odd_genus_never_qualifies(self, chain111):
        assert chain111.genus % 2 == 1
        assert not is_in_delta_half(chain111)


class TestPrincipal:
    def test_unique_central(self, chain111):
        assert principal_component(chain111) == "C2"

    def test_tie_break_is_lexicographic(self, two22):
        assert principal_component(two22) == "C1"

    def test_unbalanced_pair(self, g31):
        assert principal_component(g31) == "C1"


class TestSmallTails:
    def test_equal_halves(self, two22):
        tails = small_tails(two22, "C1")
        assert [two22.members(t.side) for t in tails] == [("C2",)]

    def test_unbalanced_pair(self, g31):
        tails = small_tails(g31, "C1")
        assert [g31.members(t.side) for t in tails] == [("C2",)]

    def test_chain_leaves(self, chain111):
        tails = small_tails(chain111, "C2")
        assert sorted(chain111.members(t.side) for t in tails) == [("C1",), ("C3",)]

    def test_small_tail_at_node(self, two22, g31, chain111):
        assert two22.members(small_tail_at_node(two22, "C1", "n").side) == ("C2",)
        assert g31.members(small_tail_at_node(g31, "C1", "n").side) == ("C2",)
        assert chain111.members(small_tail_at_node(chain111, "C2", "n1").side) == ("C1",)

    def test_principal_in_no_small_tail(self, corpus500):
        for tree in corpus500[:80]:
            xpr = principal_component(tree)
            for tail in small_tails(tree, xpr):
                assert not tree.contains(tail.side, xpr)

    def test_exactly_one_small_tail_per_node(self, corpus500):
        for tree in corpus500[:80]:
            xpr = principal_component(tree)
            small = set(small_tails(tree, xpr))
            for node in tree.nodes:
                assert sum(1 for t in tree.tails_at(node.id) if t in small) == 1

    def test_at_node_agrees_with_small_tails_for_every_x(self, corpus500, delta50):
        for tree in corpus500[:80] + delta50:
            for xpr in tree.ids:
                small = small_tails(tree, xpr)
                for node in tree.nodes:
                    tail = small_tail_at_node(tree, xpr, node.id)
                    assert tail in small and tail.node == node.id

    def test_internal_check_names_node_x_and_size(self, monkeypatch, chain111):
        # the package re-exports the function classify() under the module's name
        module = importlib.import_module("treeabel.classify")
        monkeypatch.setattr(module, "is_small_tail", lambda *args: True)
        with pytest.raises(RuntimeError) as err:
            small_tail_at_node(chain111, "C2", "n1")
        message = str(err.value)
        assert message.startswith("internal check failed")
        assert "'n1'" in message and "'C2'" in message and "3 components" in message


class TestAgainstBruteforce:
    def test_central_and_semicentral_match_definition(self, corpus500):
        for tree in corpus500[:120]:
            genus_map, edges = oracles.tree_data(tree)
            assert list(central_components(tree)) == oracles.central_bruteforce(
                genus_map, edges
            )
            assert list(semicentral_components(tree)) == oracles.semicentral_bruteforce(
                genus_map, edges
            )


class TestClassificationInvariants:
    def test_report_consistency(self, corpus500):
        for tree in corpus500[:120]:
            report = classify(tree)
            assert set(report.central) <= set(report.semicentral)
            assert len(report.central) <= 1
            assert report.in_delta_half == (not report.central)
            if report.in_delta_half:
                assert len(report.semicentral) == 2
                a, b = report.semicentral
                assert any(set(n.ends) == {a, b} for n in tree.nodes)
                assert report.principal == min(report.semicentral)
            else:
                assert report.principal in report.central


def largest_part_genus(tree) -> dict[str, int]:
    """Per component, by name lookups per tail: the largest genus of a complement part."""
    largest = dict.fromkeys(tree.ids, 0)
    for tail, genus in zip(tree.tails, tree.tail_genera):
        outside = tree.tail_ends(tail)[1]
        largest[outside] = max(largest[outside], genus)
    return largest


class TestOneTable:
    def test_accessors_read_classify(self, corpus500):
        for tree in corpus500:
            report = classify(tree)
            assert central_components(tree) == report.central
            assert semicentral_components(tree) == report.semicentral
            assert is_in_delta_half(tree) == report.in_delta_half
            assert principal_component(tree) == report.principal

    def test_table_matches_per_tail_lookups(self, corpus500, delta50):
        for tree in corpus500 + delta50:
            g, largest = tree.genus, largest_part_genus(tree)
            report = classify(tree)
            assert report.central == tuple(c for c, top in largest.items() if 2 * top < g)
            assert report.semicentral == tuple(c for c, top in largest.items() if 2 * top <= g)
            assert report.in_delta_half == any(2 * gz == g for gz in tree.tail_genera)
            assert report.principal == min(report.central or report.semicentral)


class TestInternalCheckContext:
    def test_message_rebuilds_the_tree(self, monkeypatch, chain1111):
        # every tail reads genus 0, so every component looks central
        monkeypatch.setitem(chain1111.__dict__, "tail_genera", (0,) * len(chain1111.tails))
        with pytest.raises(RuntimeError) as err:
            classify(chain1111)
        message = str(err.value)
        assert message.startswith("internal check failed: 4 central components; tree: ")
        rebuilt = CurveTree.from_data(json.loads(message.split("; tree: ", 1)[1]))
        assert rebuilt.to_data() == chain1111.to_data()
        assert classify(rebuilt).principal == "C2"
