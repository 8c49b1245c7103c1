"""Canonical Abel-map multidegrees and pointwise images as formal divisors.

With e_1 the unit multidegree at the principal component X, the paper's
canonical sequence is e_{d+1} = e_d + e_1 + one twist by O(-Z) for each
tail Z avoiding X that is big for e_d, that is, with omega(Z) = 2 g_Z - 1,

    d_Z * (2g - 2) - d * omega(Z) < 2 g_Z - g.

Rooted at X, two tails avoiding X are nested or disjoint, so a twist by Z,
which moves one unit across the node of Z, and adding e_1 leave the degree
of every other tail avoiding X unchanged.  The degree t_d(Z) of such a tail
on e_d, the number of steps e_1 .. e_{d-1} twisting Z, thus obeys a scalar
recursion, t_1 = 0 and t_{d+1} = t_d + [Z big at step d], solved by

    t_d(Z) = min(d - 1, c_d),   c_d = ceil((d * omega(Z) - (g - 1)) / (2g - 2)):

Z is big at step d exactly when t_d < c_{d+1}, and c_d >= 0 grows by at
most one per degree since omega(Z) <= 2g - 3.  c_d is the X-quasistable
degree of Z, so the clamp only bites for off-centre X.  :func:`twist_step`,
:func:`big_tails` and :func:`abel1` keep the step-by-step construction,
which the tests hold the closed forms to.

Point images are purely formal: a divisor is a vector of integer
coefficients on smooth-point labels and on node branches (a node n with
ends A, B yields the branch symbols n@A on A and n@B on B).  No linear
equivalence on components is decided; two divisors are equal exactly when
their coefficients agree.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence

from .classify import is_small_tail, small_tail_at_node, small_tails
from .curves import CurveTree, Multidegree, Tail, _tail_window, _Value


class SmoothPoint(_Value):
    """A labelled smooth point on a component; doubles as a divisor symbol."""

    __match_args__ = ("component", "label")

    def __init__(self, component: str, label: str):
        self.__dict__.update(component=component, label=label)


class NodePoint(_Value):
    __match_args__ = ("node",)

    def __init__(self, node: str):
        self.__dict__["node"] = node


Point = SmoothPoint | NodePoint


class Branch(_Value):
    """Divisor symbol for one side of a node: the branch of n on a component."""

    __match_args__ = ("node", "component")

    def __init__(self, node: str, component: str):
        self.__dict__.update(node=node, component=component)


Symbol = SmoothPoint | Branch


def _symbol_key(sym: Symbol) -> tuple[str, int, str]:
    """(component, 0, label) for a smooth point, (component, 1, node) for a branch."""
    if isinstance(sym, SmoothPoint):
        return (sym.component, 0, sym.label)
    return (sym.component, 1, sym.node)


def _divisor(acc: Mapping[tuple[str, int, str], int]) -> DivisorRep:
    """The divisor with coefficients ``acc`` on symbol keys, symbols built only here."""
    items = sorted((key, c) for key, c in acc.items() if c != 0)
    return DivisorRep(tuple(
        (SmoothPoint(cid, name) if kind == 0 else Branch(name, cid), c)
        for (cid, kind, name), c in items
    ))


class DivisorRep(_Value):
    """Formal per-component divisor: integer coefficients on symbols.

    Zero coefficients are dropped and the symbols are kept sorted, so
    equality is coefficient-wise equality.
    """

    __match_args__ = ("coeffs",)

    def __init__(self, coeffs: tuple[tuple[Symbol, int], ...] = ()):
        self.__dict__["coeffs"] = coeffs

    @classmethod
    def from_mapping(cls, mapping: Mapping[Symbol, int]) -> "DivisorRep":
        return _divisor({_symbol_key(sym): c for sym, c in mapping.items()})

    def coefficient(self, sym: Symbol) -> int:
        for symbol, value in self.coeffs:
            if symbol == sym:
                return value
        return 0

    def on_component(self, component_id: str) -> dict[Symbol, int]:
        return {sym: c for sym, c in self.coeffs if sym.component == component_id}

    def multidegree(self, tree: CurveTree) -> Multidegree:
        per: dict[str, int] = {}
        for sym, c in self.coeffs:
            per[sym.component] = per.get(sym.component, 0) + c
        return tree.multidegree(per)


def multidegree_of(tree: CurveTree, rep: DivisorRep) -> Multidegree:
    """Per-component sums of the divisor coefficients."""
    return rep.multidegree(tree)


class TwistDelta(_Value):
    """Degree and divisor change from restricting O(sign * Z) to the curve."""

    __match_args__ = ("tail", "multidegree", "divisor")

    def __init__(self, tail: Tail, multidegree: Multidegree, divisor: DivisorRep):
        self.__dict__.update(tail=tail, multidegree=multidegree, divisor=divisor)


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


def _add_twist(
    acc: dict[tuple[str, int, str], int], node: str, inside: str, outside: str, count: int
) -> None:
    """Add ``count`` times the divisor of the twist by O(-Z) to ``acc``, on symbol keys."""
    for key, c in (((inside, 1, node), count), ((outside, 1, node), -count)):
        acc[key] = acc.get(key, 0) + c


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

    e_d is d units at X, twisted t_d(Z) times by each tail Z avoiding X.
    t_d(Z) rises one at a time and first reaches t at the least d with
    d - 1 >= t and c_d >= t, d = max(t + 1, floor((2t - 1)(g - 1) / omega(Z)) + 1),
    so e_d is e_{d-1} plus a unit at X and one twist by each tail rising at d.
    """
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    h = tree.genus - 1
    rises: list[list[tuple[int, int]]] = [[] for _ in range(dmax + 1)]
    for ends, gz, away in zip(tree.tail_end_positions, tree.tail_genera, tree.avoids(xpr)):
        if not away:
            continue
        for t in range(1, dmax):
            d = max(t + 1, (2 * t - 1) * h // (2 * gz - 1) + 1)
            if d > dmax:
                break
            rises[d].append(ends)
    x = tree._component(xpr)
    degrees = [0] * len(tree.ids)
    seq = []
    for d in range(1, dmax + 1):
        degrees[x] += 1
        for inside, outside in rises[d]:
            degrees[inside] += 1
            degrees[outside] -= 1
        seq.append(Multidegree(tuple(degrees)))
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
    """Raise ``KeyError`` naming the point's node or component if the tree lacks it."""
    if isinstance(point, NodePoint):
        tree.node_ends(point.node)
    else:
        tree.genus_of(point.component)


def abel1(tree: CurveTree, xpr: str, point: Point) -> DivisorRep:
    """Degree-1 image of a point as a formal divisor.

    Start from the point itself (for a node, from the branch of the node
    on its small tail), then twist up by every small tail containing the
    point.  The multidegree of the result is e_1 for every point.
    """
    _check_point(tree, point)
    if isinstance(point, SmoothPoint):
        acc = {_symbol_key(point): 1}
    else:
        inside = tree.tail_ends(small_tail_at_node(tree, xpr, point.node))[0]
        acc = {(inside, 1, point.node): 1}
    for tail in small_tails(tree, xpr):
        if _point_in_tail(tree, point, tail):
            _add_twist(acc, tail.node, *tree.tail_ends(tail), -1)
    return _divisor(acc)


def abel_d(tree: CurveTree, xpr: str, config: Sequence[Point]) -> DivisorRep:
    """Degree-d image of an ordered point configuration, in one pass.

    The paper twists the sum of the degree-1 images down t_d(Z) times by
    each tail Z avoiding X.  Each degree-1 image is the point's symbol
    twisted up by the small tails holding it, and a node point lies in a
    small tail exactly when its symbol's component does.  So each tail Z is
    twisted once, t_d(Z) [Z avoids X] - c_Z [Z small] times, where c_Z
    counts the symbols in Z.  The image is symmetric in the configuration.
    """
    if not config:
        raise ValueError("point configuration must be non-empty")
    for point in config:
        _check_point(tree, point)
    d, g, ids, tails = len(config), tree.genus, tree.ids, tree.tails
    avoids = tree.avoids(xpr)
    small = [is_small_tail(g, gz, away) for gz, away in zip(tree.tail_genera, avoids)]
    small_ends = {
        tail.node: ids[ends[0]]
        for tail, ends, is_small in zip(tails, tree.tail_end_positions, small)
        if is_small
    }
    keys = [
        (p.component, 0, p.label) if isinstance(p, SmoothPoint) else (small_ends[p.node], 1, p.node)
        for p in config
    ]
    acc: dict[tuple[str, int, str], int] = Counter(keys)
    held = tree.tail_sums(tree.multidegree(Counter(key[0] for key in keys)).degrees)
    for tail, (inside, outside), gz, away, is_small, c in zip(
        tails, tree.tail_end_positions, tree.tail_genera, avoids, small, held
    ):
        # t_d(Z) = min(d - 1, the lowest semistable degree of Z)
        count = (min(d - 1, _tail_window(d, g, gz)[0]) if away else 0) - (c if is_small else 0)
        if count:
            _add_twist(acc, tail.node, ids[inside], ids[outside], count)
    return _divisor(acc)
