"""Comparison of the two canonical multidegree sequences on half-genus curves.

When no central component exists, either semicentral component may serve
as the principal one, giving two multidegree sequences.  They differ by a
single tail twist: there is an integer eta_d in {-1, 0, 1} with

    e_{1,d} = e_{2,d} + eta_d * (multidegree of the twist by Y2),

where Y2 is the genus-g/2 tail avoiding the first semicentral component.
The eta values follow the recursion

    eta_1 = 1,   eta_{d+1} = eta_d + 1 - eps_{2,d} - eps_{1,d},

with eps_{i,d} recording whether the opposite genus-g/2 tail is big for
e_{i,d}.  Both the recursion and the membership of eta in {-1, 0, 1} are
re-verified against the directly measured difference on every run; a
mismatch is an internal error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abel import big_tails, e_sequence, twist_delta
from .classify import is_in_delta_half, semicentral_components
from .curves import CurveTree, Multidegree, Tail


@dataclass(frozen=True)
class ComparisonReport:
    x1: str
    x2: str
    y1: Tail
    y2: Tail
    eta: tuple[int, ...]
    ok: bool
    e1_sequence: tuple[Multidegree, ...]
    e2_sequence: tuple[Multidegree, ...]


def _half_genus_tail(tree: CurveTree, component_id: str) -> Tail:
    """The unique genus-g/2 connected part of the component's complement.

    Those parts are the tails at the component's own nodes, on the far side.
    """
    g = tree.genus
    matches = [
        tail
        for tail, genus in zip(tree.tails, tree.tail_genera)
        if 2 * genus == g and tree.tail_ends(tail)[1] == component_id
    ]
    if len(matches) != 1:
        raise RuntimeError(
            f"internal check failed: complement of '{component_id}' has "
            f"{len(matches)} genus-g/2 parts"
        )
    return matches[0]


def compare_principals(tree: CurveTree, dmax: int) -> ComparisonReport:
    """Build both sequences up to dmax and verify the single-twist relation."""
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    if not is_in_delta_half(tree):
        raise ValueError(
            "curve has a central component, so the principal choice is unique"
        )
    x1, x2 = sorted(semicentral_components(tree))
    y2 = _half_genus_tail(tree, x1)
    y1 = _half_genus_tail(tree, x2)
    if y1.node != y2.node or y1.side != tree.complement(y2.side):
        raise RuntimeError(
            "internal check failed: the genus-g/2 tails are not complementary "
            f"at a shared node ({y1.node}, {y2.node})"
        )

    seq1 = e_sequence(tree, x1, dmax)
    seq2 = e_sequence(tree, x2, dmax)
    step = twist_delta(tree, y2, 1).multidegree

    eta = [1]
    for d in range(1, dmax):
        eps1 = y2 in big_tails(tree, seq1[d - 1], x1)
        eps2 = y1 in big_tails(tree, seq2[d - 1], x2)
        eta.append(eta[-1] + 1 - int(eps1) - int(eps2))

    for d in range(1, dmax + 1):
        if eta[d - 1] not in (-1, 0, 1):
            raise RuntimeError(
                f"internal check failed: eta_{d} = {eta[d - 1]} out of range"
            )
        if seq1[d - 1] != seq2[d - 1] + step.scaled(eta[d - 1]):
            raise RuntimeError(
                f"internal check failed: twist relation broken at degree {d}"
            )

    return ComparisonReport(
        x1=x1,
        x2=x2,
        y1=y1,
        y2=y2,
        eta=tuple(eta),
        ok=True,
        e1_sequence=seq1,
        e2_sequence=seq2,
    )


def multidegree_difference_support(tree: CurveTree, report: ComparisonReport) -> bool:
    """Whether the two sequences agree outside the two semicentral components."""
    outside = [
        i for i, cid in enumerate(tree.ids) if cid not in (report.x1, report.x2)
    ]
    return all(
        md1.degrees[i] == md2.degrees[i]
        for md1, md2 in zip(report.e1_sequence, report.e2_sequence, strict=True)
        for i in outside
    )
