from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from treeabel import (
    GenSpec,
    Multidegree,
    big_tails,
    chi_form_semistable_at,
    enumerate_quasistable,
    enumerate_semistable,
    is_quasistable,
    is_semistable,
    is_semistable_at,
    polarization,
    random_tree,
    twist_step,
)
from treeabel.stability import count_semistable


def sample_multidegrees(tree, d, count, rng):
    """Deterministic sample of total-degree-d multidegrees near the box."""
    genus_map, edges = oracles.tree_data(tree)
    box = oracles.degree_box(genus_map, edges, d, margin=1)
    ids = tree.ids
    out = []
    for _ in range(count):
        values = [rng.choice(list(box[cid])) for cid in ids[:-1]]
        values.append(d - sum(values))
        out.append(tree.multidegree(tuple(values)))
    return out


class TestSemistableAt:
    def test_boundary_case_holds(self, two22):
        md = two22.multidegree((1, 0))
        assert is_semistable_at(two22, md, two22.subcurve(["C2"]))

    def test_zero_multidegree_everywhere(self, chain111):
        md = chain111.zero_multidegree()
        for sub in oracles.connected_subcurves(chain111):
            assert is_semistable_at(chain111, md, sub)

    def test_violation_detected(self, two22):
        md = two22.multidegree((2, -1))
        assert not is_semistable_at(two22, md, two22.subcurve(["C2"]))

    def test_improper_subcurve_rejected(self, two22):
        with pytest.raises(ValueError):
            is_semistable_at(two22, two22.multidegree((1, 0)), two22.full)

    def test_complement_symmetry_on_examples(self, two22, chain111):
        rng = random.Random(5)
        for tree in (two22, chain111):
            subs = oracles.connected_subcurves(tree)
            for d in range(0, 4):
                for md in sample_multidegrees(tree, d, 20, rng):
                    for sub in subs:
                        assert is_semistable_at(tree, md, sub) == is_semistable_at(
                            tree, md, tree.complement(sub)
                        )


class TestVerdict:
    def test_degree_one_set(self, two22):
        assert is_semistable(two22, two22.multidegree((1, 0))).semistable
        assert is_semistable(two22, two22.multidegree((0, 1))).semistable

    def test_zero_multidegree_semistable(self, star):
        assert is_semistable(star, star.zero_multidegree()).semistable

    def test_witness_names_failing_subcurve(self, two22):
        verdict = is_semistable(two22, two22.multidegree((3, -2)))
        assert not verdict.semistable
        failing = [two22.members(sub) for sub, _ in verdict.witnesses]
        assert ("C2",) in failing

    def test_witnesses_are_the_failing_tails(self, chain111):
        # too much degree on C1: the tail {C1} fails above, its complement below
        verdict = is_semistable(chain111, chain111.multidegree((2, 0, 0)))
        assert [(chain111.members(sub), side) for sub, side in verdict.witnesses] == [
            (("C1",), "upper"),
            (("C2", "C3"), "lower"),
        ]

    def test_witnesses_iff_unstable(self, corpus500):
        rng = random.Random(11)
        for tree in corpus500[:30]:
            for md in sample_multidegrees(tree, 2, 10, rng):
                verdict = is_semistable(tree, md)
                assert verdict.semistable == (not verdict.witnesses)


class TestQuasistable:
    def test_degree_one_unit_is_quasistable(self, two22):
        assert is_quasistable(two22, two22.multidegree((1, 0)), "C1")
        assert not is_quasistable(two22, two22.multidegree((0, 1)), "C1")

    def test_balanced_degree_two(self, two22):
        assert is_quasistable(two22, two22.multidegree((1, 1)), "C1")

    def test_zero_multidegree(self, chain111):
        for cid in chain111.ids:
            assert is_quasistable(chain111, chain111.zero_multidegree(), cid)

    def test_unknown_component(self, two22):
        with pytest.raises(KeyError):
            is_quasistable(two22, two22.multidegree((1, 0)), "C9")


class TestChiForm:
    def test_degree_g_minus_one_boundary(self, two22):
        pol = polarization(two22, two22.genus - 1)
        assert pol.rank == 1
        assert pol.degree_on(two22.subcurve(["C2"])) == 0
        md = two22.multidegree((2, 1))
        assert chi_form_semistable_at(two22, md, two22.subcurve(["C2"]))

    def test_degree_one_boundary(self, two22):
        pol = polarization(two22, 1)
        assert pol.rank == 2 * two22.genus - 2 == 6
        assert pol.degree_on(two22.subcurve(["C2"])) == 2 * 3
        md = two22.multidegree((1, 0))
        assert chi_form_semistable_at(two22, md, two22.subcurve(["C2"]))

    def test_zero_multidegree(self, chain111):
        md = chain111.zero_multidegree()
        for sub in oracles.connected_subcurves(chain111):
            assert chi_form_semistable_at(chain111, md, sub)

    def test_two_sided_failure_detected(self, chain111):
        # fails the upper bound at {C1, C2} even though the lower bound holds
        md = chain111.multidegree((1, 1, -1))
        sub = chain111.subcurve(["C1", "C2"])
        assert not is_semistable_at(chain111, md, sub)
        assert not chi_form_semistable_at(chain111, md, sub)

    def test_matches_inequality_form_exactly(self, corpus500):
        rng = random.Random(23)
        for tree in corpus500[:60]:
            subs = oracles.connected_subcurves(tree)
            for d in (0, 1, tree.genus - 1, tree.genus):
                for md in sample_multidegrees(tree, d, 8, rng):
                    for sub in subs:
                        assert is_semistable_at(tree, md, sub) == chi_form_semistable_at(
                            tree, md, sub
                        )


class TestEnumerate:
    def test_degree_one(self, two22):
        got = [md.degrees for md in enumerate_semistable(two22, 1)]
        assert got == [(0, 1), (1, 0)]

    def test_degree_two_matches_oracle(self, two22):
        genus_map, edges = oracles.tree_data(two22)
        expected = oracles.enumerate_semistable_bruteforce(genus_map, edges, 2)
        got = [two22.multidegree_as_dict(md) for md in enumerate_semistable(two22, 2)]
        assert got == expected == [{"C1": 1, "C2": 1}]

    def test_chain_degree_zero_contains_zero_vector(self, chain111):
        got = enumerate_semistable(chain111, 0)
        assert chain111.zero_multidegree() in got
        genus_map, edges = oracles.tree_data(chain111)
        expected = oracles.enumerate_semistable_bruteforce(genus_map, edges, 0)
        assert [chain111.multidegree_as_dict(md) for md in got] == expected

    def test_negative_degree_rejected(self, two22):
        with pytest.raises(ValueError):
            enumerate_semistable(two22, -1)

    def test_matches_oracle_on_small_trees(self, small_trees):
        for tree in small_trees[:30]:
            genus_map, edges = oracles.tree_data(tree)
            for d in range(0, 4):
                expected = oracles.enumerate_semistable_bruteforce(genus_map, edges, d)
                got = [
                    tree.multidegree_as_dict(md)
                    for md in enumerate_semistable(tree, d)
                ]
                assert got == expected

    def test_sorted_canonically(self, chain111):
        for d in range(0, 4):
            got = [md.degrees for md in enumerate_semistable(chain111, d)]
            assert got == sorted(got)

    def test_count_is_the_number_enumerated(self, corpus500, two22):
        for tree in corpus500[:150]:
            for d in range(0, 5):
                assert count_semistable(tree, d) == len(enumerate_semistable(tree, d))
        with pytest.raises(ValueError):
            count_semistable(two22, -1)


class TestEnumerateQuasistable:
    def test_degree_one_unique(self, two22, g31):
        assert [md.degrees for md in enumerate_quasistable(two22, 1, "C1")] == [(1, 0)]
        assert [md.degrees for md in enumerate_quasistable(g31, 1, "C1")] == [(1, 0)]

    def test_degree_two(self, two22):
        got = [md.degrees for md in enumerate_quasistable(two22, 2, "C1")]
        assert got == [(1, 1)]

    def test_closed_form_matches_all_subsets_oracle(self, small_trees):
        # every component X, semicentral or not: the single closed-form
        # multidegree is exactly the brute-force semistable list, filtered
        checked = 0
        for tree in small_trees:
            genus_map, edges = oracles.tree_data(tree)
            for d in range(0, 5):
                semistable = oracles.enumerate_semistable_bruteforce(genus_map, edges, d)
                for cid in tree.ids:
                    expected = [
                        degrees
                        for degrees in semistable
                        if oracles.quasistable_all_subsets(genus_map, edges, degrees, cid)
                    ]
                    got = [
                        tree.multidegree_as_dict(md)
                        for md in enumerate_quasistable(tree, d, cid)
                    ]
                    assert got == expected, (tree.to_data(), d, cid)
                    checked += 1
        assert checked > 1000

    def test_never_empty_at_desk_scale(self, small_trees):
        for tree in small_trees[:15]:
            for cid in tree.ids:
                for d in range(0, 4):
                    assert enumerate_quasistable(tree, d, cid)


class TestAgainstAllSubsetsOracle:
    def test_semistable_and_quasistable_match(self, small_trees):
        rng = random.Random(7)
        for tree in small_trees[:40]:
            genus_map, edges = oracles.tree_data(tree)
            for d in range(0, 4):
                for md in sample_multidegrees(tree, d, 8, rng):
                    degrees = tree.multidegree_as_dict(md)
                    assert is_semistable(tree, md).semistable == (
                        oracles.semistable_all_subsets(genus_map, edges, degrees)
                    )
                    for cid in tree.ids:
                        assert is_quasistable(tree, md, cid) == (
                            oracles.quasistable_all_subsets(genus_map, edges, degrees, cid)
                        )


class TestWrongLength:
    """Every entry point that reads a caller's degrees checks their count."""

    ENTRY_POINTS = {
        "is_semistable": is_semistable,
        "is_quasistable": lambda t, md: is_quasistable(t, md, "C1"),
        "big_tails": lambda t, md: big_tails(t, md, "C1"),
        "tail_sums": lambda t, md: t.tail_sums(md.degrees),
        "twist": lambda t, md: t.twist(md, (0, 0)),
        "twist_step": lambda t, md: twist_step(t, md, "C1"),
        "multidegree_as_dict": lambda t, md: t.multidegree_as_dict(md),
        "is_semistable_at": lambda t, md: is_semistable_at(t, md, t.subcurve(["C1"])),
        "chi_form_semistable_at": lambda t, md: chi_form_semistable_at(
            t, md, t.subcurve(["C1"])
        ),
    }

    @pytest.mark.parametrize("degrees", [(1, 0, 5), (1,)])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejected(self, two22, entry, degrees):
        with pytest.raises(ValueError, match=f"^expected 2 degrees, got {len(degrees)}$"):
            self.ENTRY_POINTS[entry](two22, Multidegree(degrees))


def tail_degrees(tree, d, component, tail_degree):
    """Degrees of total d: d on the component, then each tail Z avoiding it
    twisted to degree ``tail_degree(side of Z)``.

    Rooted at the component, the tails avoiding it are nested or disjoint,
    so each twist leaves the degree of every other such tail unchanged.
    """
    degrees = dict.fromkeys(tree.ids, 0)
    degrees[component] = d
    for node, side in oracles.node_tails(tree):
        if component in side:
            continue
        inside, outside = node.ends if node.ends[0] in side else node.ends[::-1]
        target = tail_degree(side)
        degrees[inside] += target
        degrees[outside] -= target
    return [degrees[cid] for cid in tree.ids]


def window_degrees(tree, d, shifts):
    """A multidegree of total d at or near every tail window, moved by ``shifts``.

    Each tail avoiding the first component gets its degree nearest
    d * omega_Z / (2g - 2), which is semistable; the shifts, with their sum
    taken off the first component so the total stays d, push tails onto or
    just past the ends of their windows.
    """
    genus_map, _ = oracles.tree_data(tree)
    g = sum(genus_map.values())

    def nearest(side):
        omega = 2 * sum(genus_map[c] for c in side) - 1
        return (2 * d * omega + 2 * g - 2) // (4 * g - 4)

    values = [
        value + shift
        for value, shift in zip(tail_degrees(tree, d, tree.ids[0], nearest), shifts)
    ]
    values[0] -= sum(shifts)
    return values


def quasistable_degrees(tree, d, component, move):
    """The component's quasistable multidegree of total d, or one unit off it.

    Each tail avoiding the component sits at the oracle's lowest semistable
    degree; a ``move`` (i, j) then moves one unit from the i-th component to
    the j-th, which leaves it quasistable only when i == j.
    """
    genus_map, _ = oracles.tree_data(tree)
    values = tail_degrees(tree, d, component, lambda side: oracles.tail_lo(genus_map, d, side))
    if move is not None:
        i, j = move
        values[i] -= 1
        values[j] += 1
    return values


@st.composite
def trees_with_degrees(draw):
    tree = random_tree(
        draw(
            st.builds(
                GenSpec,
                genus=st.integers(2, 20),
                max_components=st.integers(2, 12),
                seed=st.integers(0, 2**32),
            )
        )
    )
    n = len(tree.ids)
    entries = st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n)
    near = st.builds(
        lambda d, shifts: window_degrees(tree, d, shifts),
        st.integers(-10**6, 10**6),
        st.lists(st.integers(-1, 1), min_size=n, max_size=n),
    )
    quasi = st.builds(
        lambda d, component, move: quasistable_degrees(tree, d, component, move),
        st.integers(-10**6, 10**6),
        st.sampled_from(tree.ids),
        st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
    )
    return tree, tree.multidegree(draw(st.one_of(entries, near, quasi)))


class TestTailWindowReferee:
    """Each tail decision read from the window equals the slack-form oracle."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=trees_with_degrees())
    def test_matches_slack_oracle(self, case):
        tree, md = case
        degrees = tree.multidegree_as_dict(md)
        witnesses = oracles.slack_witnesses(tree, degrees)
        assert is_semistable(tree, md).witnesses == witnesses
        assert is_semistable(tree, md).semistable == (not witnesses)
        for cid in tree.ids:
            assert is_quasistable(tree, md, cid) == oracles.slack_quasistable(tree, degrees, cid)
            assert big_tails(tree, md, cid) == oracles.big_tails_inequality(tree, degrees, cid)
