"""Central/semicentral components, the principal component, and small tails.

A component is central (semicentral) when every connected component of its
complement has genus strictly below (at most) half the total genus.  Those
parts are the tails at the component's own nodes, on the far side, so
:func:`classify` fills one table in one pass over the tails: per component,
the largest genus of a tail it is the outside end of.  Central, semicentral
and principal components and the half-genus locus (some tail of genus g/2)
are read from it; the other accessors read :func:`classify`.  A valid tree
has at most one central component; it has none exactly when some node
splits the curve into two halves of equal genus, and then exactly two
semicentral components exist, joined by a node.
"""

from __future__ import annotations

import json

from .curves import CurveTree, Tail, _Value


class Classification(_Value):
    __match_args__ = ("central", "semicentral", "in_delta_half", "principal")

    def __init__(
        self, central: tuple[str, ...], semicentral: tuple[str, ...], in_delta_half: bool,
        principal: str,
    ):
        self.__dict__.update(
            central=central, semicentral=semicentral, in_delta_half=in_delta_half,
            principal=principal,
        )


def _internal_error(tree: CurveTree, detail: str) -> RuntimeError:
    """A failed internal check, carrying the tree so that it can be re-run."""
    return RuntimeError(
        f"internal check failed: {detail}; tree: {json.dumps(tree.to_data(), sort_keys=True)}"
    )


def classify(tree: CurveTree) -> Classification:
    """Central, semicentral and principal components, and the half-genus locus.

    The node criterion (some tail has genus g/2) is cross-checked against
    the absence of a central component; the two characterizations must
    agree on every valid tree, so a mismatch is an internal error, never a
    result.  The principal component is the central one, or else the
    lexicographically smaller of the two semicentral ones: either choice
    is mathematically valid, so a fixed deterministic rule is used.
    """
    g = tree.genus
    largest = [0] * len(tree.ids)
    in_delta_half = False
    for (_, outside), gz in zip(tree.tail_end_positions, tree.tail_genera):
        largest[outside] = max(largest[outside], gz)
        in_delta_half = in_delta_half or 2 * gz == g
    central = tuple(cid for cid, top in zip(tree.ids, largest) if 2 * top < g)
    semicentral = tuple(cid for cid, top in zip(tree.ids, largest) if 2 * top <= g)
    if in_delta_half == bool(central):
        raise _internal_error(
            tree,
            "node criterion and central-component criterion disagree "
            f"(node: {in_delta_half}, central: {not central})",
        )
    if len(central) > 1:
        raise _internal_error(tree, f"{len(central)} central components")
    if not central and len(semicentral) != 2:
        raise _internal_error(
            tree, f"expected 2 semicentral components, found {len(semicentral)}"
        )
    return Classification(
        central=central,
        semicentral=semicentral,
        in_delta_half=in_delta_half,
        principal=central[0] if central else min(semicentral),
    )


def central_components(tree: CurveTree) -> tuple[str, ...]:
    """Components whose complement parts all have genus < g/2 (2*g_Z < g)."""
    return classify(tree).central


def semicentral_components(tree: CurveTree) -> tuple[str, ...]:
    """Components whose complement parts all have genus <= g/2 (2*g_Z <= g)."""
    return classify(tree).semicentral


def is_in_delta_half(tree: CurveTree) -> bool:
    """Whether some node splits the curve into two tails of genus g/2 each."""
    return classify(tree).in_delta_half


def principal_component(tree: CurveTree) -> str:
    """The central component, or the lexicographically smaller semicentral one."""
    return classify(tree).principal


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
    """The unique small tail among the two tails at a node; only that tail is built."""
    i = 2 * tree._edge(node_id)
    away = tree._away_tails(tree._component(xpr))[i // 2]
    candidates = [
        j for j in (i, i + 1) if is_small_tail(tree.genus, tree.tail_genera[j], j == away)
    ]
    if len(candidates) != 1:
        raise _internal_error(
            tree,
            f"node '{node_id}' has {len(candidates)} small tails "
            f"for principal component '{xpr}' on a tree of {len(tree.ids)} components",
        )
    return tree._tail(candidates[0])
