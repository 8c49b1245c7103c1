"""Genus-weighted trees modelling stable curves of compact type.

A curve of compact type has only separating nodes, so its dual graph is a
tree: vertices carry component genera, edges are the nodes.  Everything
downstream (semistability inequalities, canonical Abel-map multidegrees)
is computed from this combinatorial model, so construction is strict: a
``CurveTree`` violating treeness or stability cannot be built.

Every question the package decides reduces to facts about tails, the two
sides of a node.  The traversal that checks treeness (a BFS from component
0) also builds the tree's one rooted index, from which come the tails and
one O(n) primitive, :meth:`CurveTree.tail_sums`, giving every tail's degree
or genus.

Subcurves are bitsets over the canonical (lexicographic) component order,
which keeps complements and containment tests cheap and every enumeration
deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property


class _Value:
    """Immutable value with dataclass-style ``==``, hash and repr.

    A subclass lists its fields as ``__match_args__``, and its ``__init__``
    writes them, in that order, into the instance ``__dict__``, which holds
    nothing else.  So instances of one class are equal when their dicts are,
    instances of different classes never are, and ``hash(x)`` is the hash
    of the tuple of its fields.
    """

    __match_args__: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ValidationReport(_Value):
    """Outcome of checking a tree description against all invariants."""

    __match_args__ = ("violations",)

    def __init__(self, violations: tuple[str, ...] = ()):
        self.__dict__["violations"] = violations

    @property
    def ok(self) -> bool:
        return not self.violations


class InvalidTreeError(ValueError):
    """Raised when a curve tree violates a structural invariant."""

    def __init__(self, report: ValidationReport):
        super().__init__("; ".join(report.violations))
        self.report = report


class Component(_Value):
    __match_args__ = ("id", "genus")

    def __init__(self, id: str, genus: int):
        self.__dict__.update(id=id, genus=genus)


class Node(_Value):
    __match_args__ = ("id", "ends")

    def __init__(self, id: str, ends: tuple[str, str]):
        self.__dict__.update(id=id, ends=ends)


class Subcurve(_Value):
    """Set of components, encoded as a bitmask in canonical order."""

    __match_args__ = ("mask",)

    def __init__(self, mask: int):
        self.__dict__["mask"] = mask


class Tail(_Value):
    """One side of a separating node (the side meets its complement once)."""

    __match_args__ = ("node", "side")

    def __init__(self, node: str, side: Subcurve):
        self.__dict__.update(node=node, side=side)


class Multidegree(_Value):
    """Integer degree per component, in canonical component order."""

    __match_args__ = ("degrees",)

    def __init__(self, degrees: tuple[int, ...]):
        self.__dict__["degrees"] = degrees

    @property
    def total(self) -> int:
        return sum(self.degrees)

    def on(self, sub: Subcurve) -> int:
        """Sum of the degrees over the components of ``sub``."""
        mask = sub.mask
        value = 0
        while mask:
            low = mask & -mask
            value += self.degrees[low.bit_length() - 1]
            mask ^= low
        return value

    def __add__(self, other: "Multidegree") -> "Multidegree":
        return Multidegree(tuple(a + b for a, b in zip(self.degrees, other.degrees, strict=True)))

    def __sub__(self, other: "Multidegree") -> "Multidegree":
        return Multidegree(tuple(a - b for a, b in zip(self.degrees, other.degrees, strict=True)))

    def scaled(self, factor: int) -> "Multidegree":
        return Multidegree(tuple(factor * a for a in self.degrees))


def _index_structure(
    components: Sequence[Component], nodes: Sequence[Node]
) -> tuple[list[str], dict[str, object]]:
    """Check the structural invariants; on a valid tree, also return its rooted index.

    One traversal does both: the BFS from component 0 is the connectivity
    check, and the neighbour-list lengths are the degrees the genus-0
    stability check reads.  The index, empty on any violation, holds the
    :class:`CurveTree` attributes: the public ``ids``, ``genus`` and ``full``,
    ``_position`` (id -> position), ``_genera``, ``_edges`` ((node id, end
    position, end position), sorted by node id), ``_edge_position`` (node id
    -> edge position), and the BFS ``_order`` and ``_parent`` (-1 at the root).
    """
    violations: list[str] = []

    seen_components: set[str] = set()
    for comp in components:
        if comp.id in seen_components:
            violations.append(f"duplicate component id '{comp.id}'")
        seen_components.add(comp.id)
        if comp.genus < 0:
            violations.append(f"component '{comp.id}' has negative genus")
    if not components:
        violations.append("tree has no components")

    seen_nodes: set[str] = set()
    referential_ok = not violations
    for node in nodes:
        if node.id in seen_nodes:
            violations.append(f"duplicate node id '{node.id}'")
        seen_nodes.add(node.id)
        a, b = node.ends
        for end in (a, b):
            if end not in seen_components:
                violations.append(f"node '{node.id}' references unknown component '{end}'")
                referential_ok = False
        if a == b:
            violations.append(f"node '{node.id}' is a self-loop on component '{a}'")
            referential_ok = False
    if not referential_ok:
        return violations, {}

    n = len(components)
    ids, genera = zip(*sorted((comp.id, comp.genus) for comp in components))
    position = {cid: i for i, cid in enumerate(ids)}
    edges = tuple(
        (node.id, position[node.ends[0]], position[node.ends[1]])
        for node in sorted(nodes, key=lambda node: node.id)
    )
    neighbors: list[list[int]] = [[] for _ in ids]
    for _, a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)

    parent = [-1] * n
    order = [0]
    if len(nodes) != n - 1:
        violations.append(f"not a tree: {len(nodes)} nodes on {n} components")
    else:
        for v in order:
            for w in neighbors[v]:
                if w and parent[w] < 0:
                    parent[w] = v
                    order.append(w)
        if len(order) != n:
            violations.append("not a tree: graph is disconnected")

    for comp in components:
        degree = len(neighbors[position[comp.id]])
        if comp.genus == 0 and degree < 3:
            violations.append(
                f"stability: genus-0 component '{comp.id}' needs >=3 nodes, has {degree}"
            )

    total = sum(genera)
    if total < 2:
        violations.append(f"total genus {total} is less than 2")
    if violations:
        return violations, {}
    return violations, {
        "ids": ids, "genus": total, "full": Subcurve((1 << n) - 1),
        "_position": position, "_genera": genera, "_edges": edges,
        "_edge_position": {nid: i for i, (nid, _, _) in enumerate(edges)},
        "_order": tuple(order), "_parent": tuple(parent),
    }


def _shape_violations(data: object) -> tuple[list[str], list[Component], list[Node]]:
    violations: list[str] = []
    components: list[Component] = []
    nodes: list[Node] = []

    if not isinstance(data, Mapping):
        return ["tree data must be a JSON object"], [], []
    for key in data:
        if key not in ("components", "nodes"):
            violations.append(f"unknown key '{key}'")
    for key in ("components", "nodes"):
        if key not in data:
            violations.append(f"missing key '{key}'")
    if violations:
        return violations, [], []

    raw_components = data["components"]
    if not isinstance(raw_components, Sequence) or isinstance(raw_components, (str, bytes)):
        return ["'components' must be a list"], [], []
    for i, entry in enumerate(raw_components):
        if not isinstance(entry, Mapping) or set(entry) != {"id", "genus"}:
            violations.append(f"component entry {i} must be an object with keys id, genus")
            continue
        cid, genus = entry["id"], entry["genus"]
        if not isinstance(cid, str) or not cid:
            violations.append(f"component entry {i} has a non-string id")
            continue
        if isinstance(genus, bool) or not isinstance(genus, int) or genus < 0:
            violations.append(f"component '{cid}' genus must be a non-negative integer")
            continue
        components.append(Component(cid, genus))

    raw_nodes = data["nodes"]
    if not isinstance(raw_nodes, Sequence) or isinstance(raw_nodes, (str, bytes)):
        return violations + ["'nodes' must be a list"], [], []
    for i, entry in enumerate(raw_nodes):
        if not isinstance(entry, Mapping) or set(entry) != {"id", "ends"}:
            violations.append(f"node entry {i} must be an object with keys id, ends")
            continue
        nid, ends = entry["id"], entry["ends"]
        if not isinstance(nid, str) or not nid:
            violations.append(f"node entry {i} has a non-string id")
            continue
        if (
            not isinstance(ends, Sequence)
            or isinstance(ends, (str, bytes))
            or len(ends) != 2
            or not all(isinstance(e, str) for e in ends)
        ):
            violations.append(f"node '{nid}' ends must be a pair of component ids")
            continue
        nodes.append(Node(nid, (ends[0], ends[1])))

    return violations, components, nodes


def validate(data: object) -> ValidationReport:
    """Check a raw tree description (parsed JSON) against every invariant.

    Nothing is repaired: each violated invariant is reported with the
    offending component or node id, as :meth:`CurveTree.from_data` raises it.
    """
    try:
        CurveTree.from_data(data)
    except InvalidTreeError as exc:
        return exc.report
    return ValidationReport()


def _tail_window(d: int, genus: int, tail_genus: int) -> range:
    """Semistable degrees t of a tail: |(4g-4) t - 2 d omega_Z| <= 2g-2.

    One or two integers; a tail avoiding X takes the lowest when quasistable.
    """
    h = genus - 1
    omega = 2 * tail_genus - 1
    return range(-(-(d * omega - h) // (2 * h)), (d * omega + h) // (2 * h) + 1)


class CurveTree(_Value):
    """Stable curve of compact type: a genus-weighted tree.

    Instances are immutable and always valid; construction raises
    :class:`InvalidTreeError` otherwise.  It also sets ``ids`` (component ids
    in canonical, lexicographic order), ``genus`` (the sum of the component
    genera; separating nodes add none) and ``full`` (the whole curve).
    Its ``__dict__`` also holds the rooted index and cached tail data, so
    equality and hash are its own, over ``components`` and ``nodes`` only.
    """

    __match_args__ = ("components", "nodes")

    def __init__(self, components: tuple[Component, ...], nodes: tuple[Node, ...]):
        self.__dict__.update(components=components, nodes=nodes)
        violations, index = _index_structure(components, nodes)
        if violations:
            raise InvalidTreeError(ValidationReport(tuple(violations)))
        self.__dict__.update(index)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.components, self.nodes) == (other.components, other.nodes)

    def __hash__(self) -> int:
        return hash((self.components, self.nodes))

    @classmethod
    def build(
        cls,
        components: Iterable[tuple[str, int]],
        nodes: Iterable[tuple[str, str, str]] = (),
    ) -> "CurveTree":
        return cls(
            tuple(Component(cid, genus) for cid, genus in components),
            tuple(Node(nid, (a, b)) for nid, a, b in nodes),
        )

    @classmethod
    def from_data(cls, data: object) -> "CurveTree":
        violations, components, nodes = _shape_violations(data)
        if violations:
            raise InvalidTreeError(ValidationReport(tuple(violations)))
        return cls(tuple(components), tuple(nodes))

    def to_data(self) -> dict:
        return {
            "components": [{"id": cid, "genus": g} for cid, g in zip(self.ids, self._genera)],
            "nodes": [{"id": nid, "ends": [self.ids[a], self.ids[b]]} for nid, a, b in self._edges],
        }

    # -- lookups in the index that construction sets ------------------------

    def _component(self, component_id: str) -> int:
        """Canonical position of a component."""
        try:
            return self._position[component_id]
        except KeyError:
            raise KeyError(f"unknown component '{component_id}'") from None

    def _edge(self, node_id: str) -> int:
        """Position of a node in ``_edges``, which is also its tail pair's in ``tails``."""
        try:
            return self._edge_position[node_id]
        except KeyError:
            raise KeyError(f"unknown node '{node_id}'") from None

    def genus_of(self, component_id: str) -> int:
        return self._genera[self._component(component_id)]

    def node_ends(self, node_id: str) -> tuple[str, str]:
        _, a, b = self._edges[self._edge(node_id)]
        return self.ids[a], self.ids[b]

    # -- subcurve combinatorics ------------------------------------------

    def subcurve(self, members: Iterable[str]) -> Subcurve:
        mask = 0
        for cid in members:
            mask |= 1 << self._component(cid)
        if not mask:
            raise ValueError("subcurve must be non-empty")
        return Subcurve(mask)

    def members(self, sub: Subcurve) -> tuple[str, ...]:
        return tuple(cid for i, cid in enumerate(self.ids) if sub.mask >> i & 1)

    def complement(self, sub: Subcurve) -> Subcurve:
        return Subcurve(self.full.mask ^ sub.mask)

    def contains(self, sub: Subcurve, component_id: str) -> bool:
        return bool(sub.mask >> self._component(component_id) & 1)

    def k(self, sub: Subcurve) -> int:
        """Number of nodes joining ``sub`` to its complement (crossing edges)."""
        return sum((sub.mask >> a & 1) != (sub.mask >> b & 1) for _, a, b in self._edges)

    def subcurve_genus(self, sub: Subcurve) -> int:
        """Genus of a subcurve: the sum of its component genera."""
        return Multidegree(self._genera).on(sub)

    def connected_parts(self, sub: Subcurve) -> tuple[Subcurve, ...]:
        """Connected components of the induced subgraph, canonically ordered.

        Rooted at component 0, each part hangs from its one member whose
        parent lies outside the subcurve.
        """
        parent = self._parent
        top: dict[int, int] = {}
        parts: dict[int, int] = {}
        for v in self._order:
            if sub.mask >> v & 1:
                top[v] = top.get(parent[v], v)
                parts[top[v]] = parts.get(top[v], 0) | 1 << v
        return tuple(Subcurve(mask) for mask in sorted(parts.values(), key=lambda m: m & -m))

    def omega_degree(self, sub: Subcurve) -> int:
        """Degree of the dualizing sheaf restricted to the subcurve.

        Each connected part W contributes 2*g_W - 2 + k_W; a tail therefore
        gives 2*g_Z - 1 and the whole curve gives 2*g - 2.
        """
        return sum(
            2 * self.subcurve_genus(part) - 2 + self.k(part)
            for part in self.connected_parts(sub)
        )

    # -- the rooted tail index -------------------------------------------

    def _below(self, values: Sequence[int]) -> list[int]:
        """Per component v: the sum of ``values`` over the subtree rooted at v."""
        parent = self._parent
        below = list(values)
        for v in reversed(self._order[1:]):
            below[parent[v]] += below[v]
        return below

    @cached_property
    def _tail_roots(self) -> tuple[tuple[int, bool], ...]:
        """Per tail: its node's subtree root v, and whether the tail is below v."""
        n = len(self.ids)
        parent = self._parent
        sizes = self._below([1] * n)
        out: list[tuple[int, bool]] = []
        for _, a, b in self._edges:
            v = b if parent[b] == a else a
            # on a tie, the side holding component 0 (the first id) sorts first
            below_first = 2 * sizes[v] < n
            out += [(v, below_first), (v, not below_first)]
        return tuple(out)

    def tail_sums(self, values: Sequence[int]) -> tuple[int, ...]:
        """Sum of per-component values (canonical order) over each tail, in O(n).

        Given a multidegree's degrees this is each tail's degree; given the
        genera, each tail's genus.  Aligned with :attr:`tails`.
        """
        below = self._below(values)
        return tuple(
            below[v] if is_below else below[0] - below[v]
            for v, is_below in self._tail_roots
        )

    @cached_property
    def tails(self) -> tuple[Tail, ...]:
        """All 2 * #nodes tails, grouped per node (by node id), smaller side first.

        Equal-sized sides are ordered lexicographically by their members.
        """
        masks = self.tail_sums([1 << i for i in range(len(self.ids))])
        return tuple(
            Tail(self._edges[i // 2][0], Subcurve(mask)) for i, mask in enumerate(masks)
        )

    @cached_property
    def tail_genera(self) -> tuple[int, ...]:
        """Genus of each tail, aligned with :attr:`tails`."""
        return self.tail_sums(self._genera)

    def tails_at(self, node_id: str) -> tuple[Tail, Tail]:
        i = 2 * self._edge(node_id)
        return self.tails[i], self.tails[i + 1]

    @cached_property
    def tail_end_positions(self) -> tuple[tuple[int, int], ...]:
        """Canonical positions of each tail's node ends, inside then outside."""
        parent = self._parent
        return tuple((v, parent[v]) if below else (parent[v], v) for v, below in self._tail_roots)

    def tail_ends(self, tail: Tail) -> tuple[str, str]:
        """Ends of the tail's node: the one inside the tail, then the one outside."""
        end_a, end_b = self.node_ends(tail.node)
        return (end_a, end_b) if self.contains(tail.side, end_a) else (end_b, end_a)

    def avoids(self, component_id: str) -> tuple[bool, ...]:
        """Whether each tail avoids the component, aligned with :attr:`tails`."""
        unit = self.unit_multidegree(component_id).degrees
        return tuple(not inside for inside in self.tail_sums(unit))

    def twist(self, md: Multidegree, counts: Sequence[int]) -> Multidegree:
        """Twist by O(-Z) counts[i] times for the i-th tail Z of :attr:`tails`.

        Each twist moves one unit of degree across the tail's node, onto
        its end inside Z; the total degree is unchanged.
        """
        degrees = list(md.degrees)
        for (inside, outside), count in zip(self.tail_end_positions, counts, strict=True):
            degrees[inside] += count
            degrees[outside] -= count
        return Multidegree(tuple(degrees))

    # -- multidegrees ------------------------------------------------------

    def multidegree(self, spec: Mapping[str, int] | Sequence[int]) -> Multidegree:
        """Build a multidegree from an id->degree mapping or a canonical tuple."""
        if isinstance(spec, Mapping):
            for cid in spec:
                self._component(cid)
            return Multidegree(tuple(spec.get(cid, 0) for cid in self.ids))
        degrees = tuple(spec)
        if len(degrees) != len(self.ids):
            raise ValueError(f"expected {len(self.ids)} degrees, got {len(degrees)}")
        return Multidegree(degrees)

    def zero_multidegree(self) -> Multidegree:
        return Multidegree((0,) * len(self.ids))

    def unit_multidegree(self, component_id: str) -> Multidegree:
        degrees = [0] * len(self.ids)
        degrees[self._component(component_id)] = 1
        return Multidegree(tuple(degrees))

    def multidegree_as_dict(self, md: Multidegree) -> dict[str, int]:
        return dict(zip(self.ids, md.degrees, strict=True))
