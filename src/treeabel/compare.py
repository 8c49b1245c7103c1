"""Comparison of the two canonical multidegree sequences on half-genus curves.

When no central component exists, either semicentral component may serve
as the principal one, giving two multidegree sequences.  They differ by a
single tail twist: there is an integer eta_d in {-1, 0, 1} with

    e_{1,d} = e_{2,d} + eta_d * (multidegree of the twist by Y2),

where Y2 is the genus-g/2 tail avoiding the first semicentral component.
The eta values follow the recursion

    eta_1 = 1,   eta_{d+1} = eta_d + 1 - eps_{2,d} - eps_{1,d},

with eps_{i,d} recording whether the opposite genus-g/2 tail Y is big for
e_{i,d}: for g_Y = g/2 the big-tail inequality
d_Y (2g - 2) - d (2 g_Y - 1) < 2 g_Y - g reduces to 2 d_Y < d.  Both the
recursion and the membership of eta in {-1, 0, 1} are re-verified against
the directly measured difference on every run; a mismatch is an internal
error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abel import e_sequence, twist_delta
from .classify import _internal_error, classify
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
    x = tree.ids.index(component_id)
    matches = [
        tail
        for tail, (_, outside), genus in zip(tree.tails, tree.tail_end_positions, tree.tail_genera)
        if 2 * genus == g and outside == x
    ]
    if len(matches) != 1:
        raise _internal_error(
            tree, f"complement of '{component_id}' has {len(matches)} genus-g/2 parts"
        )
    return matches[0]


def compare_principals(tree: CurveTree, dmax: int) -> ComparisonReport:
    """Build both sequences up to dmax and verify the single-twist relation."""
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    report = classify(tree)
    if not report.in_delta_half:
        raise ValueError(
            "curve has a central component, so the principal choice is unique"
        )
    x1, x2 = sorted(report.semicentral)
    y2 = _half_genus_tail(tree, x1)
    y1 = _half_genus_tail(tree, x2)
    if y1.node != y2.node or y1.side != tree.complement(y2.side):
        raise _internal_error(
            tree,
            "the genus-g/2 tails are not complementary at a shared node "
            f"({y1.node}, {y2.node}) for principal components '{x1}', '{x2}'",
        )

    seq1 = e_sequence(tree, x1, dmax)
    seq2 = e_sequence(tree, x2, dmax)
    step = twist_delta(tree, y2, 1).multidegree

    eta = [1]
    for d in range(1, dmax):
        eps1 = 2 * seq1[d - 1].on(y2.side) < d
        eps2 = 2 * seq2[d - 1].on(y1.side) < d
        eta.append(eta[-1] + 1 - int(eps1) - int(eps2))

    for d in range(1, dmax + 1):
        context = f"at degree {d} for principal components '{x1}', '{x2}'"
        if eta[d - 1] not in (-1, 0, 1):
            raise _internal_error(tree, f"eta_{d} = {eta[d - 1]} out of range {context}")
        if seq1[d - 1] != seq2[d - 1] + step.scaled(eta[d - 1]):
            raise _internal_error(tree, f"twist relation broken {context}")

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
