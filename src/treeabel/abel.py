"""Canonical Abel-map multidegrees and pointwise images as formal divisors.

With e_1 the unit multidegree at the principal component X, the paper's
canonical sequence is e_{d+1} = e_d + e_1 + one twist by O(-Z) for each
tail Z avoiding X that is big for e_d, that is, with omega(Z) = 2 g_Z - 1,

    d_Z * (2g - 2) - d * omega(Z) < 2 g_Z - g,

that is, d_Z < lo_{d+1}(Z), the lowest semistable degree of Z in total
degree d + 1, since 2 g_Z - g = omega(Z) - (g - 1).

Rooted at X, two tails avoiding X are nested or disjoint, so a twist by Z,
which moves one unit across the node of Z, and adding e_1 leave the degree
of every other tail avoiding X unchanged.  The degree t_d(Z) of such a tail
on e_d, the number of steps e_1 .. e_{d-1} twisting Z, thus obeys a scalar
recursion, t_1 = 0 and t_{d+1} = t_d + [Z big at step d], solved by

    t_d(Z) = min(d - 1, c_d),   c_d = ceil((d * omega(Z) - (g - 1)) / (2g - 2)):

Z is big at step d exactly when t_d < c_{d+1}, and c_d >= 0 grows by at
most one per degree since omega(Z) <= 2g - 3.  c_d = lo_d(Z) is the
X-quasistable degree of Z, so the clamp only bites for off-centre X;
:func:`e_sequence` runs each tail's rises up to t_dmax(Z) and no further.
As lo_{d+2g-2}(Z) = lo_d(Z) + omega(Z), for semicentral X the sequence is
periodic: e_{d+2g-2} = e_d + K_C, with K_C(C_i) = 2 g_i - 2 + val(C_i).
:func:`twist_step` and :func:`big_tails` keep the step-by-step e_d, which
the tests hold the closed forms to; the paper's stepwise degree-1 image is
a test oracle, and :func:`abel1` is the one-point case of :func:`abel_d`.

Point images are purely formal: a divisor is a vector of integer
coefficients on smooth-point labels and on node branches (a node n with
ends A, B yields the branch symbols n@A on A and n@B on B).  No linear
equivalence on components is decided; two divisors are equal exactly when
their coefficients agree.  :func:`abel_d` writes one coefficient per node
slot (2k and 2k + 1 on the two ends of node k) and reads the components in
id order, so its image comes out sorted, from branch symbols built once.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .classify import is_small_tail
from .curves import CurveTree, Multidegree, Tail, _tail_windows, _Value


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
        items = [(sym, c) for sym, c in mapping.items() if c != 0]
        return cls(tuple(sorted(items, key=lambda item: _symbol_key(item[0]))))

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


def e1(tree: CurveTree, xpr: str) -> Multidegree:
    """Degree-1 canonical multidegree: one on the principal component."""
    return tree.unit_multidegree(xpr)


def _big(tree: CurveTree, md: Multidegree, component_id: str) -> list[bool]:
    """Whether each tail is big for md and avoids the component (``tails`` order)."""
    windows = _tail_windows(md.total + 1, tree.genus, tree.tail_genera)
    return [
        away and dz < lo
        for dz, (lo, _), away in zip(tree.tail_sums(md.degrees), windows, tree.avoids(component_id))
    ]


def big_tails(tree: CurveTree, md: Multidegree, component_id: str) -> tuple[Tail, ...]:
    """Big tails of the multidegree that avoid the given component."""
    return tuple(t for t, big in zip(tree.tails, _big(tree, md, component_id)) if big)


def twist_step(tree: CurveTree, md: Multidegree, component_id: str) -> Multidegree:
    """One construction step: add a unit at X, then twist by every big tail.

    Applied to an X-quasistable multidegree this yields an X-quasistable
    multidegree of total degree one higher.
    """
    tree._check_length(md.degrees)
    return tree.twist(md + tree.unit_multidegree(component_id), _big(tree, md, component_id))


def e_sequence(tree: CurveTree, xpr: str, dmax: int) -> tuple[Multidegree, ...]:
    """Canonical multidegrees e_1 .. e_dmax for the given principal choice.

    e_d is d units at X, twisted t_d(Z) times by each tail Z avoiding X.
    t_d(Z) rises one at a time and first reaches t at the least d with
    d - 1 >= t and c_d >= t, d = max(t + 1, floor((2t - 1)(g - 1) / omega(Z)) + 1),
    so e_d is e_{d-1} plus a unit at X and one twist by each tail rising at d.
    Each tail rises for t = 1 .. t_dmax(Z) = min(dmax - 1, lo_dmax(Z)) only.
    For semicentral X, e_{d+2g-2} = e_d + K_C, the canonical multidegree.
    """
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    h, x = tree.genus - 1, tree._component(xpr)
    ends, genera, away = tree.tail_end_positions, tree.tail_genera, tree._away_tails(x)
    rises: list[list[tuple[int, int]]] = [[] for _ in range(dmax + 1)]
    for i, (lo, _) in zip(away, _tail_windows(dmax, tree.genus, (genera[i] for i in away))):
        omega, step = 2 * genera[i] - 1, ends[i]
        for t in range(1, min(dmax - 1, lo) + 1):
            d = (2 * t - 1) * h // omega + 1
            rises[d if d > t else t + 1].append(step)
    degrees = [0] * len(tree.ids)
    seq = []
    for d in range(1, dmax + 1):
        degrees[x] += 1
        for inside, outside in rises[d]:
            degrees[inside] += 1
            degrees[outside] -= 1
        seq.append(Multidegree(tuple(degrees)))
    return tuple(seq)


def abel1(tree: CurveTree, xpr: str, point: Point) -> DivisorRep:
    """Degree-1 image of a point as a formal divisor: :func:`abel_d` of the one point.

    Its multidegree is e_1 for every point.
    """
    return abel_d(tree, xpr, (point,))


def abel_d(tree: CurveTree, xpr: str, config: Sequence[Point]) -> DivisorRep:
    """Degree-d image of an ordered point configuration, in one pass over the nodes.

    The paper twists the sum of the degree-1 images down t_d(Z) times by
    each tail Z avoiding X.  Each degree-1 image is the point's symbol
    twisted up by the small tails holding it, where a node point's symbol
    is its branch on the small tail at its node, so a point lies in a small
    tail exactly when its symbol's component does.  At each node exactly
    one of the two tails is small, a twist by one is minus a twist by the
    other, and their symbol counts c_Z and c_Z' add up to d.  So only the
    tail Z avoiding X is twisted, min(d - 1, lo_d(Z)) - c_Z + d [Z not small]
    times.  The image is symmetric in the configuration.

    Which end carries a node point's symbol never changes the image: moving
    it into Z raises c_Z by one, which removes one twist by Z at that same
    node.  So every node point is written on its node's end inside Z.  Each
    node slot holds one coefficient, and the components are read in id
    order, each giving its smooth labels (sorted), then its nonzero slots.
    """
    if not config:
        raise ValueError("point configuration must be non-empty")
    symbols = [0] * len(tree.ids)
    smooth: dict[tuple[int, str], list] = {}  # (position, label) -> [point, count]
    at_nodes = []
    for p in config:
        if isinstance(p, NodePoint):
            at_nodes.append(tree._edge(p.node))
        else:
            pos = tree._component(p.component)
            symbols[pos] += 1
            smooth.setdefault((pos, p.label), [p, 0])[1] += 1
    d, g, h = len(config), tree.genus, tree.genus - 1
    genera, (slots, starts, tail_slots) = tree.tail_genera, tree._node_slots
    away = tree._away_tails(tree._component(xpr))
    coef = [0] * (2 * len(away))
    for k in at_nodes:
        symbols[tree.tail_end_positions[away[k]][0]] += 1
        coef[tail_slots[away[k]]] += 1
    held = tree.tail_sums(symbols)
    for i in away:
        gz = genera[i]
        # t_d(Z) = min(d - 1, lo_d(Z)), lo as in _tail_windows
        count = min(d - 1, -(-(d * (2 * gz - 1) - h) // (2 * h))) - held[i]
        if not is_small_tail(g, gz, True):
            count += d
        if count:
            s = tail_slots[i]
            coef[s] += count
            coef[s ^ 1] -= count
    if "_branches" not in tree.__dict__:  # built at a tree's first image, kept with its index
        branches = (Branch(node, tree.ids[end]) for node, a, b in tree._edges for end in (a, b))
        tree.__dict__["_branches"] = tuple(branches)
    branches = tree.__dict__["_branches"]
    coeffs: list[tuple[Symbol, int]] = []
    done = 0
    for (pos, _), (point, count) in sorted(smooth.items()):
        coeffs += [(branches[s], coef[s]) for s in slots[done : starts[pos]] if coef[s]]
        coeffs.append((point, count))
        done = starts[pos]
    coeffs += [(branches[s], coef[s]) for s in slots[done:] if coef[s]]
    return DivisorRep(tuple(coeffs))
