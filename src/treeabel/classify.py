"""Central/semicentral components, the principal component, and small tails.

A component is central (semicentral) when every connected component of its
complement has genus strictly below (at most) half the total genus.  A
valid tree has at most one central component; it has none exactly when some
node splits the curve into two halves of equal genus, in which case exactly
two semicentral components exist and they are joined by a node.

The connected parts of a component's complement are the tails at its own
nodes, on the far side, so every test here reads tail genera.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import CurveTree, Tail


@dataclass(frozen=True)
class Classification:
    central: tuple[str, ...]
    semicentral: tuple[str, ...]
    in_delta_half: bool
    principal: str


def _largest_part_genus(tree: CurveTree) -> dict[str, int]:
    """Per component: the largest genus among the connected parts of its complement."""
    largest = dict.fromkeys(tree.ids, 0)
    for tail, genus in zip(tree.tails, tree.tail_genera):
        outside = tree.tail_ends(tail)[1]
        largest[outside] = max(largest[outside], genus)
    return largest


def central_components(tree: CurveTree) -> tuple[str, ...]:
    """Components whose complement parts all have genus < g/2 (2*g_Z < g)."""
    g = tree.genus
    return tuple(cid for cid, top in _largest_part_genus(tree).items() if 2 * top < g)


def semicentral_components(tree: CurveTree) -> tuple[str, ...]:
    """Components whose complement parts all have genus <= g/2 (2*g_Z <= g)."""
    g = tree.genus
    return tuple(cid for cid, top in _largest_part_genus(tree).items() if 2 * top <= g)


def is_in_delta_half(tree: CurveTree) -> bool:
    """Whether some node splits the curve into two tails of genus g/2 each.

    Computed from the node criterion and cross-checked against the absence
    of a central component; the two characterizations must agree on every
    valid tree, so a mismatch is an internal error, never a result.
    """
    g = tree.genus
    by_nodes = any(2 * genus == g for genus in tree.tail_genera)
    by_central = not central_components(tree)
    if by_nodes != by_central:
        raise RuntimeError(
            "internal check failed: node criterion and central-component "
            f"criterion disagree (node: {by_nodes}, central: {by_central})"
        )
    return by_nodes


def principal_component(tree: CurveTree) -> str:
    """The central component, or the lexicographically smaller semicentral one.

    The tie-break only applies when no central component exists; either
    semicentral choice is mathematically valid, so a fixed deterministic
    rule is used.
    """
    central = central_components(tree)
    if central:
        if len(central) > 1:
            raise RuntimeError(f"internal check failed: {len(central)} central components")
        return central[0]
    semicentral = semicentral_components(tree)
    if len(semicentral) != 2:
        raise RuntimeError(
            "internal check failed: expected 2 semicentral components, "
            f"found {len(semicentral)}"
        )
    return min(semicentral)


def is_small_tail(genus: int, tail_genus: int, away: bool) -> bool:
    """Genus below g/2, or exactly g/2 with the principal component outside."""
    return 2 * tail_genus < genus or (2 * tail_genus == genus and away)


def small_tails(tree: CurveTree, xpr: str) -> tuple[Tail, ...]:
    """Tails of genus < g/2, plus genus-g/2 tails whose complement holds xpr."""
    return tuple(
        tail
        for tail, gz, away in zip(tree.tails, tree.tail_genera, tree.avoids(xpr))
        if is_small_tail(tree.genus, gz, away)
    )


def small_tail_at_node(tree: CurveTree, xpr: str, node_id: str) -> Tail:
    """The unique small tail among the two tails at a node."""
    candidates = [
        t
        for t in tree.tails_at(node_id)
        if is_small_tail(tree.genus, tree.subcurve_genus(t.side), not tree.contains(t.side, xpr))
    ]
    if len(candidates) != 1:
        raise RuntimeError(
            f"internal check failed: node '{node_id}' has {len(candidates)} small tails "
            f"for principal component '{xpr}' on a tree of {len(tree.ids)} components"
        )
    return candidates[0]


def classify(tree: CurveTree) -> Classification:
    return Classification(
        central=central_components(tree),
        semicentral=semicentral_components(tree),
        in_delta_half=is_in_delta_half(tree),
        principal=principal_component(tree),
    )
