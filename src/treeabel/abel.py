"""Canonical Abel-map multidegrees and pointwise images as formal divisors.

The degree-d image of a point configuration is built from the degree-1
images and a fixed stack of tail twists.  Writing e_1 for the unit
multidegree at the principal component, the canonical sequence is

    e_{d+1} = e_d + e_1 + sum of twist deltas over the big tails of e_d,

where a tail Z is big for a multidegree d of total degree D when

    d_Z * (2g - 2) - D * omega(Z) < 2 g_Z - g,

and only big tails avoiding the principal component are twisted.  Each
twist by a tail Z moves one unit of degree across the separating node, so
the deltas have total degree zero.  A twist by Z changes no other tail
avoiding the principal component, so the degree of such a tail on e_d
counts the steps e_1 .. e_{d-1} at which it was big.

Point images are purely formal: a divisor is a vector of integer
coefficients on smooth-point labels and on node branches (a node n with
ends A, B yields the branch symbols n@A on A and n@B on B).  No linear
equivalence on components is decided; two divisors are equal exactly when
their coefficients agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .classify import small_tail_at_node, small_tails
from .curves import CurveTree, Multidegree, Tail


@dataclass(frozen=True)
class SmoothPoint:
    """A labelled smooth point on a component; doubles as a divisor symbol."""

    component: str
    label: str


@dataclass(frozen=True)
class NodePoint:
    node: str


Point = Union[SmoothPoint, NodePoint]


@dataclass(frozen=True)
class Branch:
    """Divisor symbol for one side of a node: the branch of n on a component."""

    node: str
    component: str


Symbol = Union[SmoothPoint, Branch]


def _symbol_key(sym: Symbol) -> tuple[str, int, str]:
    if isinstance(sym, SmoothPoint):
        return (sym.component, 0, sym.label)
    return (sym.component, 1, sym.node)


@dataclass(frozen=True)
class DivisorRep:
    """Formal per-component divisor: integer coefficients on symbols.

    Zero coefficients are dropped and the symbols are kept sorted, so
    dataclass equality is coefficient-wise equality.
    """

    coeffs: tuple[tuple[Symbol, int], ...] = ()

    @classmethod
    def from_mapping(cls, mapping: Mapping[Symbol, int]) -> "DivisorRep":
        items = [(sym, c) for sym, c in mapping.items() if c != 0]
        items.sort(key=lambda item: _symbol_key(item[0]))
        return cls(tuple(items))

    def coefficient(self, sym: Symbol) -> int:
        for symbol, value in self.coeffs:
            if symbol == sym:
                return value
        return 0

    def on_component(self, component_id: str) -> dict[Symbol, int]:
        return {sym: c for sym, c in self.coeffs if sym.component == component_id}

    def multidegree(self, tree: CurveTree) -> Multidegree:
        per = {cid: 0 for cid in tree.ids}
        for sym, c in self.coeffs:
            if sym.component not in per:
                raise KeyError(f"unknown component '{sym.component}'")
            per[sym.component] += c
        return tree.multidegree(per)


def multidegree_of(tree: CurveTree, rep: DivisorRep) -> Multidegree:
    """Per-component sums of the divisor coefficients."""
    return rep.multidegree(tree)


@dataclass(frozen=True)
class TwistDelta:
    """Degree and divisor change from restricting O(sign * Z) to the curve."""

    tail: Tail
    multidegree: Multidegree
    divisor: DivisorRep


def twist_delta(tree: CurveTree, tail: Tail, sign: int) -> TwistDelta:
    """Delta of the tail twist: one unit moved across the separating node.

    For sign = -1 (the twist by O(-Z)) the degree rises by one on the
    tail-side component at the node and drops by one on the other side;
    sign = +1 negates both changes.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    inside, outside = tree.tail_ends(tail)
    md = (tree.unit_multidegree(inside) - tree.unit_multidegree(outside)).scaled(-sign)
    rep = DivisorRep.from_mapping(
        {Branch(tail.node, inside): -sign, Branch(tail.node, outside): sign}
    )
    return TwistDelta(tail, md, rep)


def _add_twist(acc: dict[Symbol, int], tree: CurveTree, tail: Tail, count: int) -> None:
    """Add ``count`` times the divisor of the twist by O(-Z) to ``acc``."""
    inside, outside = tree.tail_ends(tail)
    for sym, c in ((Branch(tail.node, inside), count), (Branch(tail.node, outside), -count)):
        acc[sym] = acc.get(sym, 0) + c


def e1(tree: CurveTree, xpr: str) -> Multidegree:
    """Degree-1 canonical multidegree: one on the principal component."""
    return tree.unit_multidegree(xpr)


def _big(tree: CurveTree, md: Multidegree, component_id: str) -> list[bool]:
    """Whether each tail is big for md and avoids the component (``tails`` order)."""
    g = tree.genus
    d = md.total
    return [
        away and dz * (2 * g - 2) - d * (2 * gz - 1) < 2 * gz - g
        for dz, gz, away in zip(
            tree.tail_sums(md.degrees), tree.tail_genera, tree.avoids(component_id)
        )
    ]


def big_tails(tree: CurveTree, md: Multidegree, component_id: str) -> tuple[Tail, ...]:
    """Big tails of the multidegree that avoid the given component."""
    return tuple(t for t, big in zip(tree.tails, _big(tree, md, component_id)) if big)


def twist_step(tree: CurveTree, md: Multidegree, component_id: str) -> Multidegree:
    """One construction step: add a unit at X, then twist by every big tail.

    Applied to an X-quasistable multidegree this yields an X-quasistable
    multidegree of total degree one higher.
    """
    return tree.twist(md + tree.unit_multidegree(component_id), _big(tree, md, component_id))


def e_sequence(tree: CurveTree, xpr: str, dmax: int) -> tuple[Multidegree, ...]:
    """Canonical multidegrees e_1 .. e_dmax for the given principal choice.

    Built by the twist recursion, one O(n) :func:`twist_step` per degree.
    """
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    seq = [e1(tree, xpr)]
    while len(seq) < dmax:
        seq.append(twist_step(tree, seq[-1], xpr))
    return tuple(seq)


def _point_in_tail(tree: CurveTree, point: Point, tail: Tail) -> bool:
    # A node point lies on both tails at its own node, and in any tail
    # containing both ends of its node; a tail holding exactly one end is
    # necessarily the tail at that very node.
    if isinstance(point, SmoothPoint):
        return tree.contains(tail.side, point.component)
    if point.node == tail.node:
        return True
    end_a, end_b = tree.node_ends(point.node)
    return tree.contains(tail.side, end_a) and tree.contains(tail.side, end_b)


def _check_point(tree: CurveTree, point: Point) -> None:
    if isinstance(point, SmoothPoint):
        if point.component not in tree.ids:
            raise KeyError(f"unknown component '{point.component}'")
    else:
        tree.node_ends(point.node)


def abel1(tree: CurveTree, xpr: str, point: Point) -> DivisorRep:
    """Degree-1 image of a point as a formal divisor.

    Start from the point itself (for a node, from the branch of the node
    on its small tail), then twist up by every small tail containing the
    point.  The multidegree of the result is e_1 for every point.
    """
    _check_point(tree, point)
    acc: dict[Symbol, int] = {}
    if isinstance(point, SmoothPoint):
        acc[point] = 1
    else:
        inside = tree.tail_ends(small_tail_at_node(tree, xpr, point.node))[0]
        acc[Branch(point.node, inside)] = 1
    for tail in small_tails(tree, xpr):
        if _point_in_tail(tree, point, tail):
            _add_twist(acc, tree, tail, -1)
    return DivisorRep.from_mapping(acc)


def abel_d(tree: CurveTree, xpr: str, config: Sequence[Point]) -> DivisorRep:
    """Degree-d image of an ordered point configuration.

    The sum of the degree-1 images, twisted down by the big tails of each
    e_1 .. e_{d-1}, that is, by each tail Z avoiding the principal component
    d_Z(e_d) times.  It is symmetric in the configuration, of multidegree e_d.
    """
    if not config:
        raise ValueError("point configuration must be non-empty")
    acc: dict[Symbol, int] = {}
    for point in config:
        for sym, c in abel1(tree, xpr, point).coeffs:
            acc[sym] = acc.get(sym, 0) + c
    e_d = e_sequence(tree, xpr, len(config))[-1]
    for tail, count, away in zip(tree.tails, tree.tail_sums(e_d.degrees), tree.avoids(xpr)):
        if away and count:
            _add_twist(acc, tree, tail, count)
    return DivisorRep.from_mapping(acc)
