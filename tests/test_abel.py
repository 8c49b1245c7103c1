from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import treeabel.abel
from treeabel import (
    Branch,
    CurveTree,
    DivisorRep,
    GenSpec,
    Multidegree,
    NodePoint,
    SmoothPoint,
    semicentral_components,
    abel1,
    abel_d,
    big_tails,
    classify,
    e1,
    e_sequence,
    enumerate_quasistable,
    enumerate_semistable,
    is_quasistable,
    multidegree_of,
    principal_component,
    random_tree,
    twist_delta,
    twist_step,
)


def rep(*items):
    return DivisorRep.from_mapping(dict(items))


class TestE1:
    def test_examples(self, two22, chain111, g31):
        assert e1(two22, "C1").degrees == (1, 0)
        assert e1(chain111, "C2").degrees == (0, 1, 0)
        assert e1(g31, "C1").degrees == (1, 0)


class TestBigTails:
    def test_balanced_pair_tail_is_big(self, two22):
        tails = big_tails(two22, two22.multidegree((1, 0)), "C1")
        assert [two22.members(t.side) for t in tails] == [("C2",)]

    def test_small_genus_side_is_not_big(self, g41):
        assert big_tails(g41, g41.multidegree((1, 0)), "C1") == ()

    def test_zero_multidegree_counts_heavy_tails(self, g31):
        # tails with 2 g_Z > g avoiding the component
        tails = big_tails(g31, g31.zero_multidegree(), "C2")
        assert [g31.members(t.side) for t in tails] == [("C1",)]
        assert big_tails(g31, g31.zero_multidegree(), "C1") == ()


class TestTwistDelta:
    def test_down_twist(self, two22):
        tail = next(t for t in two22.tails if two22.members(t.side) == ("C2",))
        delta = twist_delta(two22, tail, -1)
        assert delta.multidegree.degrees == (-1, 1)
        assert delta.divisor == rep((Branch("n", "C2"), 1), (Branch("n", "C1"), -1))

    def test_up_twist_negates(self, two22):
        tail = next(t for t in two22.tails if two22.members(t.side) == ("C2",))
        assert twist_delta(two22, tail, 1).multidegree.degrees == (1, -1)

    def test_chain_leaf(self, chain111):
        tail = next(t for t in chain111.tails if chain111.members(t.side) == ("C1",))
        delta = twist_delta(chain111, tail, -1)
        assert delta.multidegree.degrees == (1, -1, 0)
        assert delta.divisor == rep((Branch("n1", "C1"), 1), (Branch("n1", "C2"), -1))

    def test_total_degree_is_zero(self, corpus500):
        for tree in corpus500[:40]:
            for tail in tree.tails:
                for sign in (-1, 1):
                    assert twist_delta(tree, tail, sign).multidegree.total == 0

    def test_bad_sign_rejected(self, two22):
        with pytest.raises(ValueError):
            twist_delta(two22, two22.tails[0], 2)


class TestESequence:
    def test_balanced_pair(self, two22):
        assert [md.degrees for md in e_sequence(two22, "C1", 4)] == [
            (1, 0),
            (1, 1),
            (2, 1),
            (2, 2),
        ]

    def test_heavy_side_branch(self, g41):
        assert [md.degrees for md in e_sequence(g41, "C1", 2)] == [(1, 0), (2, 0)]

    def test_light_side_branch(self, two22):
        assert [md.degrees for md in e_sequence(two22, "C1", 2)] == [(1, 0), (1, 1)]

    def test_totals(self, corpus500):
        for tree in corpus500[:100]:
            xpr = principal_component(tree)
            for d, md in enumerate(e_sequence(tree, xpr, 5), start=1):
                assert md.total == d

    def test_every_term_quasistable(self, corpus500):
        for tree in corpus500[:100]:
            xpr = principal_component(tree)
            for md in e_sequence(tree, xpr, 5):
                assert is_quasistable(tree, md, xpr)

    def test_bad_dmax(self, two22):
        with pytest.raises(ValueError):
            e_sequence(two22, "C1", 0)

    def test_cached_sequences_are_prefix_consistent(self, corpus500):
        for tree in corpus500[:30]:
            xpr = principal_component(tree)
            long = e_sequence(tree, xpr, 6)
            for dmax in range(1, 6):
                assert e_sequence(tree, xpr, dmax) == long[:dmax]


class TestAbel1:
    def test_node_image_on_balanced_pair(self, two22):
        assert abel1(two22, "C1", NodePoint("n")) == rep((Branch("n", "C1"), 1))

    def test_smooth_point_on_principal(self, two22):
        p = SmoothPoint("C1", "p")
        assert abel1(two22, "C1", p) == rep((p, 1))

    def test_smooth_point_in_small_tail(self, chain111):
        p = SmoothPoint("C1", "p")
        got = abel1(chain111, "C2", p)
        assert got == rep((p, 1), (Branch("n1", "C1"), -1), (Branch("n1", "C2"), 1))
        assert got.multidegree(chain111) == e1(chain111, "C2")

    def test_unknown_point_rejected(self, two22):
        with pytest.raises(KeyError):
            abel1(two22, "C1", SmoothPoint("C9", "p"))
        with pytest.raises(KeyError):
            abel1(two22, "C1", NodePoint("bogus"))

    def test_genus_zero_principal(self, star0):
        for q in (NodePoint("n1"), SmoothPoint("C0", "p"), SmoothPoint("C2", "p")):
            assert abel1(star0, "C0", q).multidegree(star0) == e1(star0, "C0")

    def test_every_principal_choice_is_the_stepwise_image(self, corpus500, delta50):
        # every X, off-centre ones included, on the corpus and on half-genus trees
        for tree in corpus500[:80] + delta50:
            points = [NodePoint(n.id) for n in tree.nodes]
            points += [SmoothPoint(cid, "p") for cid in tree.ids]
            for xpr in tree.ids:
                for q in points:
                    assert abel1(tree, xpr, q) == oracles.abel1_stepwise(tree, xpr, q)

    def test_multidegree_is_e1_everywhere(self, corpus500):
        for tree in corpus500[:150]:
            xpr = principal_component(tree)
            points = [NodePoint(n.id) for n in tree.nodes]
            points += [SmoothPoint(cid, "p") for cid in tree.ids]
            for q in points:
                assert abel1(tree, xpr, q).multidegree(tree) == e1(tree, xpr)


class TestAbelD:
    def test_two_smooth_points_on_principal(self, two22):
        p, q = SmoothPoint("C1", "p"), SmoothPoint("C1", "q")
        assert abel_d(two22, "C1", (p, q)) == rep(
            (p, 1), (q, 1), (Branch("n", "C1"), -1), (Branch("n", "C2"), 1)
        )

    def test_mixed_components(self, two22):
        p, q = SmoothPoint("C1", "p"), SmoothPoint("C2", "q'")
        assert abel_d(two22, "C1", (p, q)) == rep((p, 1), (q, 1))

    def test_single_point_reduces_to_abel1(self, two22, chain111):
        for tree in (two22, chain111):
            xpr = principal_component(tree)
            for q in (SmoothPoint(tree.ids[0], "p"), NodePoint(tree.nodes[0].id)):
                assert abel_d(tree, xpr, (q,)) == oracles.abel1_stepwise(tree, xpr, q)

    def test_double_node_image_balanced(self, two22):
        n = NodePoint("n")
        assert abel_d(two22, "C1", (n, n)) == rep(
            (Branch("n", "C1"), 1), (Branch("n", "C2"), 1)
        )

    def test_double_node_image_heavy_side(self, g41):
        n = NodePoint("n")
        got = abel_d(g41, "C1", (n, n))
        assert got == rep((Branch("n", "C1"), 2))
        assert got.multidegree(g41).degrees == (2, 0)

    def test_repeated_label_accumulates(self, two22):
        p = SmoothPoint("C2", "p")
        got = abel_d(two22, "C1", (p, p))
        assert got.coefficient(p) == 2

    def test_empty_config_rejected(self, two22):
        with pytest.raises(ValueError):
            abel_d(two22, "C1", ())

    def test_multidegree_is_e_d(self, corpus500):
        rng = random.Random(41)
        for tree in corpus500[:30]:
            xpr = principal_component(tree)
            seq = e_sequence(tree, xpr, 4)
            for d in (2, 3, 4):
                config = tuple(
                    random_point(tree, rng) for _ in range(d)
                )
                got = abel_d(tree, xpr, config)
                assert multidegree_of(tree, got) == seq[d - 1]

    def test_either_semicentral_choice_works(self, delta50):
        rng = random.Random(59)
        for tree in delta50[:15]:
            for xpr in semicentral_components(tree):
                seq = e_sequence(tree, xpr, 3)
                config = tuple(random_point(tree, rng) for _ in range(3))
                assert abel_d(tree, xpr, config).multidegree(tree) == seq[2]
                for q in (NodePoint(tree.nodes[0].id), SmoothPoint(tree.ids[-1], "p")):
                    assert abel1(tree, xpr, q).multidegree(tree) == e1(tree, xpr)

    def test_permutation_invariance(self, corpus500):
        rng = random.Random(43)
        for tree in corpus500[:20]:
            xpr = principal_component(tree)
            config = [random_point(tree, rng) for _ in range(4)]
            image = abel_d(tree, xpr, tuple(config))
            for _ in range(5):
                shuffled = config[:]
                rng.shuffle(shuffled)
                assert abel_d(tree, xpr, tuple(shuffled)) == image

    def test_fresh_tree_builds_no_tail_masks(self, monkeypatch, corpus500, delta50):
        def refuse(*args):
            raise AssertionError("avoids called")

        monkeypatch.setattr(CurveTree, "avoids", refuse)
        for tree in (corpus500[7], delta50[3]):
            fresh = CurveTree.from_data(tree.to_data())
            points = (NodePoint(fresh.nodes[0].id), SmoothPoint(fresh.ids[-1], "p")) * 2
            for xpr in fresh.ids:
                abel_d(fresh, xpr, points)
                abel1(fresh, xpr, points[0])
            assert "tails" not in fresh.__dict__

    def test_a_second_image_builds_no_branch(self, monkeypatch, corpus500):
        built = []
        init = Branch.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Branch, "__init__", counting)
        tree = CurveTree.from_data(corpus500[7].to_data())
        points = (NodePoint(tree.nodes[0].id), SmoothPoint(tree.ids[-1], "p")) * 2
        first = abel_d(tree, tree.ids[0], points)
        # the first image builds both branch symbols of every node
        assert len(built) == 2 * len(tree.nodes)
        built.clear()
        for xpr in tree.ids:
            abel_d(tree, xpr, points)
            abel1(tree, xpr, points[0])
        assert abel_d(tree, tree.ids[0], points) == first
        assert built == []

    def test_kept_symbols_leave_the_tree_value_unchanged(self, corpus500):
        tree = CurveTree.from_data(corpus500[7].to_data())
        points = (NodePoint(tree.nodes[0].id), SmoothPoint(tree.ids[0], "p"))
        image = abel_d(tree, tree.ids[0], points)
        assert "_branches" in tree.__dict__ and "_node_slots" in tree.__dict__
        fresh = CurveTree.from_data(tree.to_data())
        assert tree == fresh and hash(tree) == hash(fresh) and repr(tree) == repr(fresh)
        copy = pickle.loads(pickle.dumps(tree))
        assert copy == fresh and abel_d(copy, tree.ids[0], points) == image

    def test_kept_symbols_carry_no_image_across_principal_choices(self, corpus500, delta50):
        # one tree asked for every X in turn, against a fresh equal tree per X
        rng = random.Random(73)
        for tree in corpus500[:20] + delta50[:10] + [chain_tree(), star_tree()]:
            kept = CurveTree.from_data(tree.to_data())
            config = tuple(random_point(tree, rng) for _ in range(5))
            for xpr in tree.ids:
                fresh = CurveTree.from_data(tree.to_data())
                assert abel_d(kept, xpr, config) == abel_d(fresh, xpr, config)
                for q in config:
                    assert abel1(kept, xpr, q) == abel1(CurveTree.from_data(tree.to_data()), xpr, q)


def twist_step_chain(tree, xpr, dmax):
    """e_1 .. e_dmax by the paper's recursion, one twist_step per degree."""
    seq = [e1(tree, xpr)]
    while len(seq) < dmax:
        seq.append(twist_step(tree, seq[-1], xpr))
    return seq[:dmax]


def abel_d_stepwise(tree, xpr, config):
    """The degree-d image by the twist stack itself: the sum of the stepwise
    degree-1 images, twisted down by every big tail of e_1 .. e_{d-1}, one
    at a time."""
    acc = {}
    for point in config:
        for sym, c in oracles.abel1_stepwise(tree, xpr, point).coeffs:
            acc[sym] = acc.get(sym, 0) + c
    for md in twist_step_chain(tree, xpr, len(config) - 1):
        for tail in big_tails(tree, md, xpr):
            for sym, c in twist_delta(tree, tail, -1).divisor.coeffs:
                acc[sym] = acc.get(sym, 0) + c
    return DivisorRep.from_mapping(acc)


def chain_tree():
    genera = [1, 1, 2, 3, 1, 2, 1, 1, 3, 1, 2, 1, 1, 1, 2, 1, 3, 1, 1, 2]
    return CurveTree.build(
        [(f"C{i:02d}", gz) for i, gz in enumerate(genera)],
        [(f"n{i:02d}", f"C{i:02d}", f"C{i + 1:02d}") for i in range(len(genera) - 1)],
    )


def star_tree():
    genera = [1, 2, 1, 3, 1, 1, 2, 1, 1, 4, 1, 2]
    return CurveTree.build(
        [("H", 0)] + [(f"L{i:02d}", gz) for i, gz in enumerate(genera)],
        [(f"n{i:02d}", "H", f"L{i:02d}") for i in range(len(genera))],
    )


class TestESequenceAgainstTwistStep:
    """The closed form against the paper's recursion, off-centre X included."""

    @staticmethod
    def check(trees, dmax=40):
        for tree in trees:
            for xpr in tree.ids:
                assert e_sequence(tree, xpr, dmax) == tuple(twist_step_chain(tree, xpr, dmax))

    def test_corpus(self, corpus500):
        self.check(corpus500)

    def test_half_genus_trees(self, delta50):
        self.check(delta50)

    def test_chain_and_star(self):
        self.check([chain_tree(), star_tree()])

    def test_no_stepwise_calls(self, monkeypatch, corpus500):
        def refuse(*args):
            raise AssertionError("stepwise construction called")

        for name in ("twist_step", "abel1", "e_sequence", "big_tails"):
            monkeypatch.setattr(treeabel.abel, name, refuse)
        tree = corpus500[7]
        points = (NodePoint(tree.nodes[0].id), SmoothPoint(tree.ids[0], "p")) * 3
        for xpr in tree.ids:
            treeabel.abel.abel_d(tree, xpr, points)
        monkeypatch.undo()
        monkeypatch.setattr(treeabel.abel, "twist_step", refuse)
        for xpr in tree.ids:
            treeabel.abel.e_sequence(tree, xpr, 20)


class TestCensus:
    """Every stable tree of small genus, up to isomorphism."""

    def test_counts(self):
        counts = [len(oracles.census(g)) for g in range(2, 9)]
        assert counts == [2, 4, 11, 30, 105, 380, 1555]

    def test_abel_d_on_one_and_two_points(self):
        # every semicentral X, every point (one label per component, every
        # node), and every configuration of one or two of them
        checked = 0
        for g in range(2, 6):
            for tree in oracles.census(g).values():
                points = [SmoothPoint(cid, "p") for cid in tree.ids]
                points += [NodePoint(n.id) for n in tree.nodes]
                for xpr in semicentral_components(tree):
                    ones = {q: oracles.abel1_stepwise(tree, xpr, q) for q in points}
                    for q, image in ones.items():
                        assert abel_d(tree, xpr, (q,)) == abel1(tree, xpr, q) == image
                        checked += 1
                    for i, q in enumerate(points):
                        for r in points[i:]:
                            assert abel_d(tree, xpr, (q, r)) == abel_d_stepwise(tree, xpr, (q, r))
                            checked += 1
        assert checked == 2263  # 384 one-point and 1,879 two-point images


def canonical_degrees(tree):
    """K_C(C_i) = 2 g_i - 2 + val(C_i), read from the tree description."""
    genus_map, edges = oracles.tree_data(tree)
    return tuple(
        2 * genus_map[cid] - 2 + sum(cid in ends for ends in edges) for cid in sorted(genus_map)
    )


@pytest.fixture(scope="module")
def census7():
    """Every stable tree of genus 2 .. 7, up to isomorphism."""
    return [tree for g in range(2, 8) for tree in oracles.census(g).values()]


class TestCensusESequence:
    """e_d and the principal choices on every stable tree of genus <= 7."""

    def test_e_sequence_is_the_twist_step_chain_and_periodic(self, census7):
        pairs = 0
        for tree in census7:
            period = 2 * tree.genus - 2
            canonical = Multidegree(canonical_degrees(tree))
            for xpr in semicentral_components(tree):
                seq = e_sequence(tree, xpr, 3 * period)
                assert seq == tuple(twist_step_chain(tree, xpr, 3 * period))
                for d in range(1, 2 * period + 1):
                    assert seq[d + period - 1] == seq[d - 1] + canonical
                pairs += 1
        assert pairs == 594

    def test_unit_at_x_is_quasistable_exactly_when_x_is_semicentral(self, census7):
        for tree in census7:
            semicentral = semicentral_components(tree)
            for xpr in tree.ids:
                assert is_quasistable(tree, e1(tree, xpr), xpr) == (xpr in semicentral)

    def test_central_or_two_semicentral_on_a_half_genus_curve(self, census7):
        halves = 0
        for tree in census7:
            report = classify(tree)
            if report.central:
                assert report.central == report.semicentral and len(report.central) == 1
                assert not report.in_delta_half
            else:
                assert len(report.semicentral) == 2 and report.in_delta_half
                halves += 1
        assert (len(census7) - halves, halves) == (470, 62)


class TestAbelDAgainstStepwiseTwists:
    def test_every_principal_choice(self, corpus500):
        # every X, including the off-center ones only --force reaches
        rng = random.Random(67)
        checked = 0
        for tree in corpus500[:120]:
            for xpr in tree.ids:
                config = tuple(random_point(tree, rng) for _ in range(rng.randint(1, 8)))
                assert abel_d(tree, xpr, config) == abel_d_stepwise(tree, xpr, config)
                checked += 1
        assert checked > 250

    def test_half_genus_trees(self, delta50):
        rng = random.Random(71)
        for tree in delta50:
            for xpr in tree.ids:
                config = tuple(random_point(tree, rng) for _ in range(rng.randint(1, 8)))
                assert abel_d(tree, xpr, config) == abel_d_stepwise(tree, xpr, config)


def random_point(tree, rng):
    if tree.nodes and rng.random() < 0.5:
        return NodePoint(rng.choice(tree.nodes).id)
    cid = rng.choice(tree.ids)
    return SmoothPoint(cid, f"p{rng.randrange(3)}")


def valid_spec(spec):
    return not spec.force_delta_half or (spec.genus % 2 == 0 and spec.max_components >= 2)


specs = st.builds(
    GenSpec,
    genus=st.integers(2, 14),
    max_components=st.integers(1, 12),
    seed=st.integers(0, 2**32),
    force_delta_half=st.booleans(),
).filter(valid_spec)

# derandomized, so that the suite draws the same examples on every run
property_settings = settings(max_examples=80, deadline=None, derandomize=True)


class TestClosedFormProperties:
    @property_settings
    @given(spec=specs, data=st.data(), dmax=st.integers(1, 60))
    def test_e_sequence_is_the_twist_step_chain(self, spec, data, dmax):
        tree = random_tree(spec)
        xpr = data.draw(st.sampled_from(tree.ids), label="X")
        assert e_sequence(tree, xpr, dmax) == tuple(twist_step_chain(tree, xpr, dmax))

    @property_settings
    @given(spec=specs, data=st.data(), d=st.integers(1, 60))
    def test_abel_d_is_the_stepwise_image(self, spec, data, d):
        tree = random_tree(spec)
        xpr = data.draw(st.sampled_from(tree.ids), label="X")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="points seed"))
        config = tuple(random_point(tree, rng) for _ in range(d))
        assert abel_d(tree, xpr, config) == abel_d_stepwise(tree, xpr, config)


class TestTwistStepProperty:
    def test_preserves_quasistability(self, small_trees):
        for tree in small_trees[:12]:
            for cid in tree.ids:
                for d in range(0, 4):
                    for md in enumerate_quasistable(tree, d, cid):
                        stepped = twist_step(tree, md, cid)
                        assert stepped.total == d + 1
                        assert is_quasistable(tree, stepped, cid)

    def test_big_tail_dichotomy(self, small_trees):
        # for semistable degrees, each avoided tail falls in exactly one of
        # the two half-open slack windows after bumping the total degree
        for tree in small_trees[:12]:
            g = tree.genus
            for d in range(0, 4):
                for md in enumerate_semistable(tree, d):
                    for cid in tree.ids:
                        big = set(big_tails(tree, md, cid))
                        for tail in tree.tails:
                            if tree.contains(tail.side, cid):
                                continue
                            # scaled slack of the bumped degree at the tail
                            t = 2 * (2 * g - 2) * md.on(tail.side) - 2 * (
                                d + 1
                            ) * tree.omega_degree(tail.side)
                            bound = 2 * g - 2
                            in_low = -3 * bound <= t < -bound
                            in_mid = -bound <= t <= bound
                            assert in_low != in_mid
                            assert (tail in big) == in_low
