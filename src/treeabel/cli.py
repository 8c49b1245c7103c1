"""Command-line front end: JSON trees in, deterministic JSON reports out.

Exit codes: 0 on success, 1 on a domain error (invalid tree, violated
precondition, unreadable file), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from .classify import classify
from .curves import CurveTree, Tail, validate

TYPE_CHECKING = False  # type checkers read it as True; importing typing would cost start-up
if TYPE_CHECKING:
    from .abel import DivisorRep, Point

# Names from the layers a command loads with _load once its tree parses, each
# mapped to its module.  They are bound as globals of this module, so a name
# bound first (by a test's monkeypatch or a tracer's wrapper) is the one main
# calls.
_LAZY = {
    name: module
    for module, names in (
        ("abel", "NodePoint SmoothPoint abel_d e_sequence"),
        ("compare", "compare_principals"),
        ("generator", "GenSpec random_tree"),
        ("stability", "count_semistable enumerate_quasistable enumerate_semistable"),
    )
    for name in names.split()
}


def _load(layer: str) -> None:
    module = importlib.import_module(f".{layer}", __package__)
    for name, owner in _LAZY.items():
        if owner == layer:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_LAZY[name])
    return globals()[name]


# Fixed limits on inputs whose cost grows without bound: eseq and compare do
# O(dmax * components) work, abel keeps every point, enumerate emits up to
# two multidegrees per node, tails prints n * (n - 1) ids on n components, and
# gen draws up to --max-components vertices and one random choice per unit of
# --genus.
MAX_DEGREE_WORK = 10**6
MAX_POINTS = 10**5
MAX_MULTIDEGREES = 10**5
MAX_TAIL_IDS = 10**7
MAX_GEN_SIZE = 10**5


def _emit(payload: object) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _reject_duplicates(pairs: list[tuple[str, object]]) -> dict[str, object]:
    out: dict[str, object] = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key '{key}' in a JSON object")
        out[key] = value
    return out


def _read_json(path: str) -> object:
    """Parse a JSON file, rejecting duplicate keys and too-deep nesting; each error names it."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle, object_pairs_hook=_reject_duplicates)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _load_tree(path: str) -> CurveTree:
    return CurveTree.from_data(_read_json(path))


def _resolve_principal(tree: CurveTree, override: str | None, force: bool) -> str:
    report = classify(tree)
    if override is None:
        return report.principal
    tree._component(override)
    if override not in report.semicentral and not force:
        raise ValueError(
            f"component '{override}' is neither central nor semicentral; "
            "pass --force to use it anyway"
        )
    return override


def _check_dmax(tree: CurveTree, dmax: int) -> None:
    if dmax * len(tree.ids) > MAX_DEGREE_WORK:
        raise ValueError(
            f"--dmax {dmax} on {len(tree.ids)} components exceeds the limit of "
            f"{MAX_DEGREE_WORK} degrees times components"
        )


def _check_addressable(tree: CurveTree) -> None:
    """Point tokens are split on ',', stripped, then split at the first ':'."""
    for cid in tree.ids:
        if cid == "node" or ":" in cid or "," in cid or cid != cid.strip():
            raise ValueError(f"component id '{cid}' cannot be named in --points")
    for node in tree.nodes:
        if "," in node.id or node.id != node.id.strip():
            raise ValueError(f"node id '{node.id}' cannot be named in --points")


def _parse_points(tree: CurveTree, spec: str) -> list[Point]:
    tokens = [token.strip() for token in spec.split(",") if token.strip()]
    if len(tokens) > MAX_POINTS:
        raise ValueError(f"{len(tokens)} points exceed the limit of {MAX_POINTS}")
    points: list[Point] = []
    for token in tokens:
        head, sep, rest = token.partition(":")
        if not sep or not head or not rest:
            raise ValueError(f"bad point token '{token}', expected COMP:LABEL or node:ID")
        if head == "node":
            tree.node_ends(rest)
            points.append(NodePoint(rest))
        else:
            tree.genus_of(head)
            if "@" in rest:
                # labels share the output keys with node branches, named NODE@COMP
                raise ValueError(f"bad point token '{token}': labels cannot contain '@'")
            points.append(SmoothPoint(head, rest))
    if not points:
        raise ValueError("no points given")
    return points


def _divisor_payload(tree: CurveTree, rep: DivisorRep) -> dict[str, dict[str, int]]:
    payload: dict[str, dict[str, int]] = {cid: {} for cid in tree.ids}
    for sym, coeff in rep.coeffs:
        name = sym.label if isinstance(sym, SmoothPoint) else f"{sym.node}@{sym.component}"
        payload[sym.component][name] = coeff
    return payload


def _cmd_validate(args: argparse.Namespace) -> int:
    report = validate(_read_json(args.file))
    _emit({"ok": report.ok, "violations": list(report.violations)})
    return 0 if report.ok else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    tree = _load_tree(args.file)
    report = classify(tree)
    _emit(
        {
            "central": list(report.central),
            "semicentral": list(report.semicentral),
            "in_delta_half": report.in_delta_half,
            "principal": report.principal,
        }
    )
    return 0


def _tail_payload(tree: CurveTree, tail: Tail) -> dict[str, object]:
    return {"node": tail.node, "side": list(tree.members(tail.side))}


def _cmd_tails(args: argparse.Namespace) -> int:
    tree = _load_tree(args.file)
    # each node's two tails list every component once
    n = len(tree.ids)
    if n * (n - 1) > MAX_TAIL_IDS:
        raise ValueError(
            f"{n} components give {n * (n - 1)} tail ids, over the limit of {MAX_TAIL_IDS}"
        )
    _emit([_tail_payload(tree, tail) for tail in tree.tails])
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    tree = _load_tree(args.file)
    _load("stability")
    component = classify(tree).principal if args.principal else args.quasistable
    if component is None:
        count = count_semistable(tree, args.degree)
        if count > MAX_MULTIDEGREES:
            # a power of two; str() refuses ints of over 4,300 digits (~14,000 leaves)
            shown = count if count < 10**18 else f"2^{count.bit_length() - 1}"
            raise ValueError(
                f"--degree {args.degree} gives {shown} semistable multidegrees, "
                f"over the limit of {MAX_MULTIDEGREES}"
            )
        result = enumerate_semistable(tree, args.degree)
    else:
        tree._component(component)
        result = enumerate_quasistable(tree, args.degree, component)
    _emit([tree.multidegree_as_dict(md) for md in result])
    return 0


def _cmd_eseq(args: argparse.Namespace) -> int:
    tree = _load_tree(args.file)
    _load("abel")
    _check_dmax(tree, args.dmax)
    xpr = _resolve_principal(tree, args.principal_override, args.force)
    seq = e_sequence(tree, xpr, args.dmax)
    _emit([list(md.degrees) for md in seq])
    return 0


def _cmd_abel(args: argparse.Namespace) -> int:
    tree = _load_tree(args.file)
    _load("abel")
    _check_addressable(tree)
    xpr = _resolve_principal(tree, args.principal_override, args.force)
    points = _parse_points(tree, args.points)
    rep = abel_d(tree, xpr, points)
    _emit(
        {
            "divisor": _divisor_payload(tree, rep),
            "multidegree": tree.multidegree_as_dict(rep.multidegree(tree)),
        }
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    tree = _load_tree(args.file)
    _load("compare")
    _check_dmax(tree, args.dmax)
    report = compare_principals(tree, args.dmax)
    _emit(
        {
            "x1": report.x1,
            "x2": report.x2,
            "y1": _tail_payload(tree, report.y1),
            "y2": _tail_payload(tree, report.y2),
            "eta": list(report.eta),
            "ok": report.ok,
            "e1_sequence": [list(md.degrees) for md in report.e1_sequence],
            "e2_sequence": [list(md.degrees) for md in report.e2_sequence],
        }
    )
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    for flag, value in (("--genus", args.genus), ("--max-components", args.max_components)):
        if value > MAX_GEN_SIZE:
            raise ValueError(f"{flag} {value} exceeds the limit of {MAX_GEN_SIZE}")
    _load("generator")
    spec = GenSpec(
        genus=args.genus,
        max_components=args.max_components,
        seed=args.seed,
        force_delta_half=args.delta_half,
    )
    _emit(random_tree(spec).to_data())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeabel",
        description="Canonical Abel-map multidegrees on stable curves of compact type",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a tree file against all invariants")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="central/semicentral/principal components")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("tails", help="list all tails, two per node")
    p.add_argument("file")
    p.set_defaults(func=_cmd_tails)

    p = sub.add_parser("enumerate", help="semistable or quasistable multidegrees")
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--quasistable", metavar="COMPONENT")
    group.add_argument("--principal", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("eseq", help="canonical multidegrees e_1 .. e_dmax")
    p.add_argument("file")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--principal-override", metavar="COMPONENT")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_eseq)

    p = sub.add_parser("abel", help="formal divisor image of a point configuration")
    p.add_argument("file")
    p.add_argument(
        "--points",
        required=True,
        help="comma list of COMP:LABEL (smooth point) or node:ID tokens",
    )
    p.add_argument("--principal-override", metavar="COMPONENT")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_abel)

    p = sub.add_parser("compare", help="compare the two principal choices")
    p.add_argument("file")
    p.add_argument("--dmax", type=int, required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("gen", help="generate a random valid tree")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--max-components", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--delta-half", action="store_true")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # str() quotes a KeyError's message, and an OSError's first arg is its errno
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
