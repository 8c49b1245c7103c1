"""Comparison of the two canonical multidegree sequences on half-genus curves.

When no central component exists, the two semicentral components X1 < X2
are joined by the one node whose two tails both have genus g/2, and either
may serve as the principal one, giving two multidegree sequences.  They
differ by a single tail twist:

    e_{1,d} = e_{2,d} + eta_d * (multidegree of the twist by O(Y2)),

where Y2 is the genus-g/2 tail avoiding X1 and Y1 is its complement, the
one avoiding X2; the twist lowers the degree on Y2 by one.  Both tails have
omega = 2(g/2) - 1 = g - 1, so each is twisted t_d(Y) = ceil((d - 1)/2)
times by the sequence whose principal component it avoids, and every other
twist moves degree within Y2 or within Y1.  Hence e_{1,d}(Y2) =
ceil((d - 1)/2) and e_{2,d}(Y2) = d - ceil((d - 1)/2) = floor((d + 1)/2), so
eta_d = d mod 2: 1, 0, 1, 0, ...  Both sequences are built independently
and the twist relation is measured against them on every call; a mismatch
is an internal error.  The paper's recursion
eta_{d+1} = eta_d + 1 - eps_{2,d} - eps_{1,d} is kept in ``tests/oracles.py``
as a referee for the parity form.
"""

from __future__ import annotations

from .abel import e_sequence, twist_delta
from .classify import _internal_error, classify
from .curves import CurveTree, Multidegree, Tail, _Value


class ComparisonReport(_Value):
    __match_args__ = ("x1", "x2", "y1", "y2", "eta", "ok", "e1_sequence", "e2_sequence")

    def __init__(
        self, x1: str, x2: str, y1: Tail, y2: Tail, eta: tuple[int, ...], ok: bool,
        e1_sequence: tuple[Multidegree, ...], e2_sequence: tuple[Multidegree, ...],
    ):
        self.__dict__.update(
            x1=x1, x2=x2, y1=y1, y2=y2, eta=eta, ok=ok,
            e1_sequence=e1_sequence, e2_sequence=e2_sequence,
        )


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
    # Stability makes this node unique: every tail holds a leaf, of positive genus.
    i = tree.tail_genera.index(tree.genus // 2)
    inside, outside = tree.tail_end_positions[i]
    if {tree.ids[inside], tree.ids[outside]} != {x1, x2}:
        raise _internal_error(
            tree,
            f"the genus-g/2 node '{tree._edges[i // 2][0]}' does not join "
            f"the semicentral components '{x1}', '{x2}'",
        )
    y2, y1 = tree._tail(i), tree._tail(i ^ 1)
    if tree.ids[outside] != x1:
        y1, y2 = y2, y1

    seq1 = e_sequence(tree, x1, dmax)
    seq2 = e_sequence(tree, x2, dmax)
    step = twist_delta(tree, y2, 1).multidegree
    eta = tuple(d % 2 for d in range(1, dmax + 1))
    for d in range(1, dmax + 1):
        if seq1[d - 1] != seq2[d - 1] + step.scaled(eta[d - 1]):
            raise _internal_error(
                tree,
                f"twist relation broken at degree {d} for principal components '{x1}', '{x2}'",
            )

    return ComparisonReport(
        x1=x1,
        x2=x2,
        y1=y1,
        y2=y2,
        eta=eta,
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
