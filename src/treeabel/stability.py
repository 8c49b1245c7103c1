"""Semistability and quasistability of multidegrees, in exact integers.

A multidegree d of total degree D on a curve of genus g is semistable at a
subcurve Y when

    | d_Y - D * omega(Y) / (2g - 2) |  <=  k_Y / 2,

and D-quasistability at a component X additionally requires the strict
lower bound on every subcurve containing X.  The thresholds are
half-integers and the boundary cases matter, so every comparison here is
done after clearing denominators: multiply through by 2*(2g - 2) and
compare integers.  No rational or floating-point arithmetic is used
anywhere.

The same predicates can be phrased through the canonical polarization, a
vector bundle of rank 2g - 2 (rank 1 when D = g - 1) whose degree on Y is
(g - 1 - D) * omega(Y): semistability at Y demands
chi(L|_W) * rank >= -deg(E|_W) at both W = Y and W = Y'.  The two forms
are algebraically identical after clearing denominators, and the test
suite holds them to exact boolean equality.

Checking tails suffices: the complement of a connected Y is a disjoint
union of k_Y tails, and both the slack and the bound add over those tails
(the slack at Y is minus their sum), so the node inequalities imply every
other one, and strict upper bounds on the tails avoiding X imply the strict
lower bounds for quasistability.  The two tails at a node have opposite
slacks, so each node pins one tail degree to a window of length one.  The
brute-force check over all subsets is kept as a test-only oracle.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product
from math import prod

from .curves import CurveTree, Multidegree, Subcurve, _tail_window, _Value


class StabilityVerdict(_Value):
    """``witnesses``: one (tail side, "upper" or "lower") pair per failing tail,
    in ``tails`` order; a failing node gives both its tails, on opposite sides."""

    __match_args__ = ("semistable", "witnesses")

    def __init__(self, semistable: bool, witnesses: tuple[tuple[Subcurve, str], ...] = ()):
        self.__dict__.update(semistable=semistable, witnesses=witnesses)


class Polarization(_Value):
    """Rank and per-subcurve degree data of the canonical polarization."""

    __match_args__ = ("tree", "d")

    def __init__(self, tree: CurveTree, d: int):
        self.__dict__.update(tree=tree, d=d)

    @property
    def g(self) -> int:
        return self.tree.genus

    @property
    def rank(self) -> int:
        return 1 if self.d == self.g - 1 else 2 * self.g - 2

    def degree_on(self, sub: Subcurve) -> int:
        return (self.g - 1 - self.d) * self.tree.omega_degree(sub)


def polarization(tree: CurveTree, d: int) -> Polarization:
    return Polarization(tree, d)


def _slack(tree: CurveTree, md: Multidegree, sub: Subcurve) -> tuple[int, int]:
    """Scaled slack and bound: (2(2g-2) d_Y - 2 D omega_Y, (2g-2) k_Y)."""
    g = tree.genus
    return (
        2 * (2 * g - 2) * md.on(sub) - 2 * md.total * tree.omega_degree(sub),
        (2 * g - 2) * tree.k(sub),
    )


def _check_proper(tree: CurveTree, sub: Subcurve) -> None:
    if sub.mask == 0:
        raise ValueError("subcurve must be non-empty")
    if sub.mask == tree.full.mask:
        raise ValueError("subcurve must be proper")


def is_semistable_at(tree: CurveTree, md: Multidegree, sub: Subcurve) -> bool:
    """Two-sided bound at one subcurve; holds at Y iff it holds at Y'."""
    _check_proper(tree, sub)
    slack, bound = _slack(tree, md, sub)
    return -bound <= slack <= bound


def chi_form_semistable_at(tree: CurveTree, md: Multidegree, sub: Subcurve) -> bool:
    """Semistability at a subcurve in Euler-characteristic form.

    The polarization inequality chi(L|_W) * rank >= -deg(E|_W) is one-sided
    per subcurve; evaluated at both W = sub and W = sub' it is exactly the
    two-sided bound of :func:`is_semistable_at`.
    """
    _check_proper(tree, sub)
    pol = polarization(tree, md.total)
    return _chi_holds(tree, md, sub, pol) and _chi_holds(
        tree, md, tree.complement(sub), pol
    )


def _chi_holds(tree: CurveTree, md: Multidegree, sub: Subcurve, pol: Polarization) -> bool:
    # chi(L|_W) = d_W + #parts(W) - g_W; the complement side may be disconnected.
    parts = len(tree.connected_parts(sub))
    chi = md.on(sub) + parts - tree.subcurve_genus(sub)
    return chi * pol.rank >= -pol.degree_on(sub)


def _tail_slacks(tree: CurveTree, md: Multidegree) -> tuple[list[int], int]:
    """Scaled slack per tail, where omega(Z) = 2 g_Z - 1, and the bound (k_Z = 1)."""
    g = tree.genus
    d = md.total
    slacks = [
        2 * (2 * g - 2) * dz - 2 * d * (2 * gz - 1)
        for dz, gz in zip(tree.tail_sums(md.degrees), tree.tail_genera)
    ]
    return slacks, 2 * g - 2


def is_semistable(tree: CurveTree, md: Multidegree) -> StabilityVerdict:
    """Check semistability at the two tails of every node."""
    slacks, bound = _tail_slacks(tree, md)
    witnesses = tuple(
        (tail.side, "upper" if slack > 0 else "lower")
        for tail, slack in zip(tree.tails, slacks)
        if not -bound <= slack <= bound
    )
    return StabilityVerdict(not witnesses, witnesses)


def is_quasistable(tree: CurveTree, md: Multidegree, component_id: str) -> bool:
    """Semistable, with the strict lower bound on subcurves containing X.

    On tails this reads: strict upper bound on each tail avoiding X, strict
    lower bound on each tail containing X.
    """
    avoids = tree.avoids(component_id)
    slacks, bound = _tail_slacks(tree, md)
    return all(
        -bound <= slack < bound if away else -bound < slack <= bound
        for slack, away in zip(slacks, avoids)
    )


def _semistable_choices(tree: CurveTree, d: int) -> list[Sequence[int]]:
    """Per tail: the twist counts a semistable multidegree of degree d allows it."""
    if d < 0:
        raise ValueError(f"total degree must be >= 0, got {d}")
    return [
        _tail_window(d, tree.genus, gz) if away else (0,)
        for gz, away in zip(tree.tail_genera, tree.avoids(tree.ids[0]))
    ]


def count_semistable(tree: CurveTree, d: int) -> int:
    """How many multidegrees :func:`enumerate_semistable` returns, in O(n)."""
    return prod(len(choice) for choice in _semistable_choices(tree, d))


def enumerate_semistable(tree: CurveTree, d: int) -> tuple[Multidegree, ...]:
    """All semistable multidegrees of total degree d, canonically sorted.

    Every node allows its tail away from component 0 one or two degrees;
    each choice of one degree per node is one semistable multidegree,
    reached from d on component 0 by twisting each such tail that often.
    """
    choices = _semistable_choices(tree, d)
    base = tree.unit_multidegree(tree.ids[0]).scaled(d)
    out = [tree.twist(base, counts) for counts in product(*choices)]
    out.sort(key=lambda md: md.degrees)
    return tuple(out)


def enumerate_quasistable(tree: CurveTree, d: int, component_id: str) -> tuple[Multidegree, ...]:
    """The X-quasistable multidegree of total degree d, which is unique.

    Each tail Z avoiding X takes ceil((2 d omega_Z - (2g - 2)) / (4g - 4)),
    the one degree its half-open window allows; returned as a 1-tuple.
    """
    if d < 0:
        raise ValueError(f"total degree must be >= 0, got {d}")
    counts = [
        _tail_window(d, tree.genus, gz)[0] if away else 0
        for gz, away in zip(tree.tail_genera, tree.avoids(component_id))
    ]
    return (tree.twist(tree.unit_multidegree(component_id).scaled(d), counts),)
