"""Brute-force reference implementations, used only by the tests.

Everything here works on plain ids, dicts and sets, with its own graph
traversal, so the oracles share no code path with the library: the
library checks the two tails at each node on a rooted index, the oracles
check every subset the slow way, or find each tail by its own traversal
and restate its inequality as the scaled slack against the bound.  The one
exception is :func:`eta_recursion`, the paper's construction of eta,
which is built from the library's step-by-step referees (``e_sequence``
and ``big_tails``) to hold ``compare_principals``'s closed form
eta_d = d mod 2 to it.  :func:`census` lists every stable tree of a given
genus, so that a closed form can be checked on all of them.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product

from treeabel import (
    Branch,
    CurveTree,
    DivisorRep,
    SmoothPoint,
    Tail,
    big_tails,
    e_sequence,
)


def tree_data(tree: CurveTree) -> tuple[dict[str, int], list[tuple[str, str]]]:
    genus_map = {c.id: c.genus for c in tree.components}
    edges = [(n.ends[0], n.ends[1]) for n in tree.nodes]
    return genus_map, edges


def all_proper_subsets(ids):
    ids = sorted(ids)
    for size in range(1, len(ids)):
        for combo in combinations(ids, size):
            yield frozenset(combo)


def crossing(edges, members) -> int:
    return sum(1 for a, b in edges if (a in members) != (b in members))


def connected_parts(edges, members) -> list[frozenset]:
    members = set(members)
    parts = []
    while members:
        seed = min(members)
        part = {seed}
        queue = [seed]
        while queue:
            v = queue.pop()
            for a, b in edges:
                if a == v and b in members and b not in part:
                    part.add(b)
                    queue.append(b)
                if b == v and a in members and a not in part:
                    part.add(a)
                    queue.append(a)
        parts.append(frozenset(part))
        members -= part
    return parts


def is_connected(edges, members) -> bool:
    return len(connected_parts(edges, members)) == 1


def omega(genus_map, edges, members) -> int:
    total = 0
    for part in connected_parts(edges, members):
        g_part = sum(genus_map[c] for c in part)
        total += 2 * g_part - 2 + crossing(edges, part)
    return total


def _holds_at(genus_map, edges, degrees, members, strict_lower=False):
    g = sum(genus_map.values())
    d = sum(degrees.values())
    d_y = sum(degrees[c] for c in members)
    slack = 2 * (2 * g - 2) * d_y - 2 * d * omega(genus_map, edges, members)
    bound = (2 * g - 2) * crossing(edges, members)
    if strict_lower:
        return slack > -bound
    return -bound <= slack <= bound


def semistable_all_subsets(genus_map, edges, degrees) -> bool:
    return all(
        _holds_at(genus_map, edges, degrees, members)
        for members in all_proper_subsets(genus_map)
    )


def quasistable_all_subsets(genus_map, edges, degrees, component) -> bool:
    if not semistable_all_subsets(genus_map, edges, degrees):
        return False
    return all(
        _holds_at(genus_map, edges, degrees, members, strict_lower=True)
        for members in all_proper_subsets(genus_map)
        if component in members
    )


def degree_box(genus_map, edges, d, margin=2):
    """Per-component degree ranges wide enough to contain every candidate.

    Any semistable multidegree satisfies the single-component bound, so a
    box two units wider on each side provably misses nothing.
    """
    g = sum(genus_map.values())
    box = {}
    for cid in sorted(genus_map):
        k = crossing(edges, {cid})
        w = 2 * genus_map[cid] - 2 + k
        lo = (2 * d * w - (2 * g - 2) * k) // (4 * g - 4) - margin
        hi = -((-(2 * d * w + (2 * g - 2) * k)) // (4 * g - 4)) + margin
        box[cid] = range(lo, hi + 1)
    return box


def enumerate_semistable_bruteforce(genus_map, edges, d) -> list[dict[str, int]]:
    ids = sorted(genus_map)
    box = degree_box(genus_map, edges, d)
    found = []
    for values in product(*(box[c] for c in ids)):
        if sum(values) != d:
            continue
        degrees = dict(zip(ids, values))
        if semistable_all_subsets(genus_map, edges, degrees):
            found.append(degrees)
    return found


def central_bruteforce(genus_map, edges) -> list[str]:
    g = sum(genus_map.values())
    out = []
    for cid in sorted(genus_map):
        rest = set(genus_map) - {cid}
        if all(
            2 * sum(genus_map[c] for c in part) < g
            for part in connected_parts(edges, rest)
        ):
            out.append(cid)
    return out


def semicentral_bruteforce(genus_map, edges) -> list[str]:
    g = sum(genus_map.values())
    out = []
    for cid in sorted(genus_map):
        rest = set(genus_map) - {cid}
        if all(
            2 * sum(genus_map[c] for c in part) <= g
            for part in connected_parts(edges, rest)
        ):
            out.append(cid)
    return out


def connected_subsets_bruteforce(genus_map, edges) -> list[frozenset]:
    return [
        members
        for members in all_proper_subsets(genus_map)
        if is_connected(edges, members)
    ]


def connected_subcurves(tree: CurveTree) -> list:
    """Proper connected subcurves as library subcurves, by size then members."""
    genus_map, edges = tree_data(tree)
    return [tree.subcurve(members) for members in connected_subsets_bruteforce(genus_map, edges)]


def node_tails(tree: CurveTree) -> list:
    """(node, side) for both sides of every node, in the library's ``tails`` order.

    Nodes by id, then the smaller side first, equal sizes by their sorted
    members; each side is found by a traversal of the tree without its node.
    """
    genus_map, edges = tree_data(tree)
    out = []
    for node in sorted(tree.nodes, key=lambda n: n.id):
        parts = connected_parts([edge for edge in edges if edge != tuple(node.ends)], genus_map)
        out += [(node, side) for side in sorted(parts, key=lambda p: (len(p), sorted(p)))]
    return out


def tail_slack(genus_map, degrees, side) -> tuple[int, int]:
    """A tail's scaled slack 2(2g-2) d_Z - 2 d omega_Z, omega_Z = 2 g_Z - 1, and its bound 2g-2."""
    g = sum(genus_map.values())
    d = sum(degrees.values())
    d_z = sum(degrees[c] for c in side)
    g_z = sum(genus_map[c] for c in side)
    return 2 * (2 * g - 2) * d_z - 2 * d * (2 * g_z - 1), 2 * g - 2


def tail_lo(genus_map, d, side) -> int:
    """The least degree of a tail in total d whose slack, as in :func:`tail_slack`, is >= -bound.

    2(2g-2) t - 2 d omega_Z >= -(2g-2), so t = ceil((2 d omega_Z - (2g-2)) / (4g-4)).
    """
    g = sum(genus_map.values())
    omega = 2 * sum(genus_map[c] for c in side) - 1
    return -((2 * g - 2 - 2 * d * omega) // (4 * g - 4))


def slack_witnesses(tree: CurveTree, degrees) -> tuple:
    """(side, "upper" or "lower") per tail whose slack passes its bound, in ``tails`` order."""
    genus_map, _ = tree_data(tree)
    out = []
    for _, side in node_tails(tree):
        slack, bound = tail_slack(genus_map, degrees, side)
        if not -bound <= slack <= bound:
            out.append((tree.subcurve(side), "upper" if slack > 0 else "lower"))
    return tuple(out)


def slack_quasistable(tree: CurveTree, degrees, component) -> bool:
    """Strict upper bound on each tail avoiding the component, strict lower on each holding it."""
    genus_map, _ = tree_data(tree)
    for _, side in node_tails(tree):
        slack, bound = tail_slack(genus_map, degrees, side)
        if component in side and not -bound < slack <= bound:
            return False
        if component not in side and not -bound <= slack < bound:
            return False
    return True


def big_tails_inequality(tree: CurveTree, degrees, component) -> tuple[Tail, ...]:
    """Tails Z avoiding the component that are big: d_Z (2g - 2) - d omega_Z < 2 g_Z - g."""
    genus_map, _ = tree_data(tree)
    g = sum(genus_map.values())
    d = sum(degrees.values())
    out = []
    for node, side in node_tails(tree):
        d_z = sum(degrees[c] for c in side)
        g_z = sum(genus_map[c] for c in side)
        if component not in side and d_z * (2 * g - 2) - d * (2 * g_z - 1) < 2 * g_z - g:
            out.append(Tail(node.id, tree.subcurve(side)))
    return tuple(out)


def half_genus_tail_scan(tree: CurveTree, component_id: str) -> Tail:
    """The genus-g/2 tail whose node's outside end is the component.

    Scans both sides of every node, each found by its own traversal, and
    requires exactly one match.
    """
    genus_map, _ = tree_data(tree)
    g = sum(genus_map.values())
    matches = [
        Tail(node.id, tree.subcurve(side))
        for node, side in node_tails(tree)
        if component_id in node.ends
        and component_id not in side
        and 2 * sum(genus_map[c] for c in side) == g
    ]
    assert len(matches) == 1, f"{len(matches)} genus-g/2 tails outside '{component_id}'"
    return matches[0]


def eta_recursion(tree: CurveTree, x1: str, x2: str, dmax: int) -> tuple[int, ...]:
    """The paper's eta_1 .. eta_dmax for principal choices x1 and x2.

    eta_1 = 1 and eta_{d+1} = eta_d + 1 - eps_{2,d} - eps_{1,d}, where
    eps_{i,d} records whether the genus-g/2 tail avoiding x_i is big for
    e_{i,d}.
    """
    y2 = half_genus_tail_scan(tree, x1)
    y1 = half_genus_tail_scan(tree, x2)
    seq1 = e_sequence(tree, x1, dmax)
    seq2 = e_sequence(tree, x2, dmax)
    eta = [1]
    for d in range(1, dmax):
        eps1 = y2 in big_tails(tree, seq1[d - 1], x1)
        eps2 = y1 in big_tails(tree, seq2[d - 1], x2)
        eta.append(eta[-1] + 1 - int(eps1) - int(eps2))
    return tuple(eta)


def abel1_stepwise(tree: CurveTree, xpr: str, point) -> DivisorRep:
    """The paper's degree-1 image: the point's symbol, twisted up by every small tail holding it.

    A tail is small when its genus is below g/2, or exactly g/2 with xpr
    outside it.  A node point's symbol is the branch of its node on the
    small tail there; the point lies in both tails at its own node, and in
    any other tail exactly when the tail holds both ends of its node.
    """
    genus_map, _ = tree_data(tree)
    g = sum(genus_map.values())
    small = []
    for node, side in node_tails(tree):
        g_z = sum(genus_map[c] for c in side)
        if 2 * g_z < g or (2 * g_z == g and xpr not in side):
            inside, outside = node.ends if node.ends[0] in side else node.ends[::-1]
            small.append((node.id, side, inside, outside))
    if isinstance(point, SmoothPoint):
        acc = {point: 1}
    else:
        (inside,) = [end for nid, _, end, _ in small if nid == point.node]
        acc = {Branch(point.node, inside): 1}
        (ends,) = [set(node.ends) for node in tree.nodes if node.id == point.node]
    for nid, side, inside, outside in small:
        if isinstance(point, SmoothPoint):
            holds = point.component in side
        else:
            holds = nid == point.node or ends <= side
        if holds:
            acc[Branch(nid, inside)] = acc.get(Branch(nid, inside), 0) - 1
            acc[Branch(nid, outside)] = acc.get(Branch(nid, outside), 0) + 1
    return DivisorRep.from_mapping(acc)


@cache
def _hanging(genus: int) -> tuple:
    """Rooted trees of total genus ``genus`` that hang from a parent in a stable tree.

    A tree is (root genus, children), the children a multiset as listed by
    :func:`_forests`.  The root also meets its parent, so with at most one
    child it needs genus >= 1, and with genus 0 it needs two children.
    """
    # below a genus-0 root every child has smaller genus, so there are two or more
    return tuple(sorted(
        (root, kids)
        for root in range(genus + 1)
        for kids in _forests(genus - root, 1, genus - root if root else genus - 1)
    ))


@cache
def _forests(total: int, least: int, most: int) -> tuple:
    """Multisets of hanging trees of genus least..most each, genera summing to ``total``.

    Each multiset is a sorted tuple of (genus, tree) pairs.
    """
    if total == 0:
        return ((),)
    out = []
    for first in range(least, min(total, most) + 1):
        for tree in _hanging(first):
            for rest in _forests(total - first, first, most):
                # keep the multiset sorted, so each is listed once
                if not rest or (first, tree) <= rest[0]:
                    out.append(((first, tree),) + rest)
    return tuple(out)


def _ahu(genera, adjacent, v, parent) -> str:
    kids = sorted(_ahu(genera, adjacent, w, v) for w in adjacent[v] if w != parent)
    return f"({genera[v]}{''.join(kids)})"


def _centre_key(genera, edges) -> str:
    """AHU string with genera, rooted at the centre; with two centres, the smaller one."""
    adjacent = {v: set() for v in range(len(genera))}
    for a, b in edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    left = set(adjacent)
    while len(left) > 2:
        leaves = {v for v in left if len(adjacent[v] & left) <= 1}
        left -= leaves
    return min(_ahu(genera, adjacent, v, -1) for v in left)


def census(genus: int) -> dict[str, CurveTree]:
    """Every stable genus-weighted tree of the given genus, up to isomorphism.

    Keyed by the AHU string with genera rooted at the centre.  Each tree is
    listed rooted at one vertex, as a root genus and a multiset of hanging
    trees (a genus-0 root needs three of them), and the isomorphic listings
    from other roots fall together on the key.
    """
    found: dict[str, CurveTree] = {}
    for root in range(genus + 1):
        for kids in _forests(genus - root, 1, genus):
            if not root and len(kids) < 3:
                continue
            genera, edges = [root], []
            stack = [(0, tree) for _, tree in kids]
            while stack:
                parent, (g_v, grandkids) = stack.pop()
                v = len(genera)
                genera.append(g_v)
                edges.append((parent, v))
                stack += [(v, tree) for _, tree in grandkids]
            key = _centre_key(genera, edges)
            if key not in found:
                found[key] = CurveTree.build(
                    [(f"C{v:02d}", g_v) for v, g_v in enumerate(genera)],
                    [(f"n{i:02d}", f"C{a:02d}", f"C{b:02d}") for i, (a, b) in enumerate(edges)],
                )
    return found
