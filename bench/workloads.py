"""The three benchmark workloads: inputs, requests, expected outputs, checks.

Each workload draws its inputs from a fixed universe of items, so that the
expected output of every item can be recorded once (``bench/expected``)
and any ``--seed`` selects a subset of recorded items.  A seed picks one
variant per stratum, so every seed serves the same mix of sizes and only
tree shapes and query parameters change; that keeps runs with different
seeds comparable.

A request's result is checked twice, outside the timed region: its
normalized output must hash to the recorded digest, and on the first pass
over the pool it must satisfy paper facts that do not go through the
library's own predicates (see ``facts``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

# -- shared helpers -----------------------------------------------------------


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def relabel(data: dict, prefix: str) -> dict:
    """Prefix every id; a common prefix keeps the lexicographic id order."""
    return {
        "components": [
            {"id": prefix + c["id"], "genus": c["genus"]} for c in data["components"]
        ],
        "nodes": [
            {"id": prefix + n["id"], "ends": [prefix + e for e in n["ends"]]}
            for n in data["nodes"]
        ],
    }


def tree_data(components, nodes) -> dict:
    return {
        "components": [{"id": cid, "genus": g} for cid, g in components],
        "nodes": [{"id": nid, "ends": [a, b]} for nid, a, b in nodes],
    }


def chain_data(n: int, rng: random.Random) -> dict:
    """A chain of n components with genera drawn from {1, 1, 1, 2, 3}."""
    comps = [(f"C{i:03d}", rng.choice((1, 1, 1, 2, 3))) for i in range(n)]
    nodes = [(f"n{i:03d}", f"C{i:03d}", f"C{i + 1:03d}") for i in range(n - 1)]
    return tree_data(comps, nodes)


def star_data(leaves: int) -> dict:
    """Genus-0 hub with genus-1 leaves."""
    comps = [("H", 0)] + [(f"L{i:02d}", 1) for i in range(leaves)]
    nodes = [(f"n{i:02d}", "H", f"L{i:02d}") for i in range(leaves)]
    return tree_data(comps, nodes)


def caterpillar_data(spine: int, rng: random.Random) -> dict:
    """Genus-0 spine, two legs of genus 1 or 2 on every spine component."""
    comps = [(f"S{i}", 0) for i in range(spine)]
    nodes = [(f"e{i}", f"S{i}", f"S{i + 1}") for i in range(spine - 1)]
    for i in range(spine):
        for leg in "ab":
            comps.append((f"S{i}{leg}", rng.choice((1, 1, 2))))
            nodes.append((f"l{i}{leg}", f"S{i}", f"S{i}{leg}"))
    return tree_data(comps, nodes)


def point_specs(data: dict, count: int, rng: random.Random) -> list[tuple[str, str]]:
    """About 30% node points, the rest labelled smooth points."""
    comps = sorted(c["id"] for c in data["components"])
    nodes = sorted(n["id"] for n in data["nodes"])
    out = []
    for k in range(count):
        if nodes and rng.random() < 0.3:
            out.append(("node", rng.choice(nodes)))
        else:
            out.append((rng.choice(comps), f"p{k}"))
    return out


def make_points(lib, specs, prefix: str):
    return [
        lib.NodePoint(prefix + rest) if head == "node" else lib.SmoothPoint(prefix + head, rest)
        for head, rest in specs
    ]


def tails_json(tree, tails) -> list:
    return [[t.node, list(tree.members(t.side))] for t in tails]


def divisor_json(lib, rep) -> list:
    return [
        [sym.component, "p", sym.label, c] if isinstance(sym, lib.SmoothPoint)
        else [sym.component, "b", sym.node, c]
        for sym, c in rep.coeffs
    ]


def coefficient_sums(ids, rep) -> tuple[int, ...]:
    """Per-component coefficient sums, computed here rather than by the library."""
    per = dict.fromkeys(ids, 0)
    for sym, c in rep.coeffs:
        per[sym.component] += c
    return tuple(per[i] for i in ids)


def tail_problems(ids, node_count: int, pairs) -> list[str]:
    """Two tails per node, complementary, smaller side first."""
    problems = []
    if len(pairs) != 2 * node_count:
        problems.append(f"{len(pairs)} tails for {node_count} nodes")
    everything = set(ids)
    for i in range(0, len(pairs) - 1, 2):
        (node_a, side_a), (node_b, side_b) = pairs[i], pairs[i + 1]
        if node_a != node_b or set(side_a) | set(side_b) != everything or set(side_a) & set(side_b):
            problems.append(f"tails at node {node_a} are not complementary")
        elif len(side_a) > len(side_b):
            problems.append(f"tails at node {node_a} are not smaller side first")
    return problems


def classification_problems(central, semicentral, in_delta_half, principal) -> list[str]:
    problems = []
    if len(central) > 1 or not set(central) <= set(semicentral):
        problems.append(f"central {central} not a single semicentral component")
    if in_delta_half != (not central):
        problems.append("in_delta_half disagrees with the absence of a central component")
    if principal not in semicentral:
        problems.append(f"principal {principal} is not semicentral")
    return problems


@dataclass
class Item:
    key: str  # names the recorded expected digest
    spec: tuple


@dataclass
class Request:
    item: Item
    prefix: str = ""
    payload: object = None
    tree_key: str | None = None  # set when the request presents a tree


def cycle(pool: list[Item]):
    """(pass number, position, item) over the pool, repeated forever."""
    for pass_no in itertools.count():
        for pos, item in enumerate(pool):
            yield pass_no, pos, item


def interleave(groups: list[list]) -> list:
    """Merge lists so every category is spread evenly over the result."""
    ranked = [
        ((k + 0.5) / len(group), g, k, entry)
        for g, group in enumerate(groups)
        for k, entry in enumerate(group)
    ]
    ranked.sort(key=lambda r: r[:3])
    return [r[3] for r in ranked]


# -- corpus-mix ---------------------------------------------------------------

CORPUS_STRATA = 512
CORPUS_VARIANTS = 8
CORPUS_DMAX = 8
QUASI_DEGREES = (1, 2, 3)
CORPUS_POINTS = 4
ORACLE_MAX_COMPONENTS = 8


def corpus_stratum(j: int) -> tuple:
    """Kind and size of stratum j; adjacent strata differ in genus and size."""
    if j % 32 == 7:
        return ("star", 8 + (j // 32) % 5)
    if j % 64 == 39:
        return ("caterpillar", 4 + (j // 64) % 3)
    genus = 2 + j % 23
    max_components = 1 + j % 16
    half = genus % 2 == 0 and max_components >= 2 and j % 4 == 0
    return ("random", genus, max_components, half)


class CorpusMix:
    """One-shot stream of distinct trees, each given the full query mix."""

    name = "corpus-mix"
    in_process = True
    trace_passes = 1

    def __init__(self, lib, root: Path, seed: int):
        self.lib = lib
        self.root = root
        self.seed = seed
        self.oracles = None
        self.pool: list[Item] = []
        self.inputs: dict[str, tuple[dict, list]] = {}

    def make_input(self, item: Item, tracer) -> tuple[dict, list]:
        j, r = item.spec
        stratum = corpus_stratum(j)
        rng = random.Random(f"corpus:{j}:{r}")
        if stratum[0] == "star":
            data = star_data(stratum[1])
        elif stratum[0] == "caterpillar":
            data = caterpillar_data(stratum[1], rng)
        else:
            _, genus, max_components, half = stratum
            spec = self.lib.GenSpec(genus, max_components, CORPUS_VARIANTS * j + r, half)
            data = tracer.call("generator.random_tree", self.lib.random_tree, spec).to_data()
        return data, point_specs(data, CORPUS_POINTS, rng)

    def build(self, tracer) -> None:
        # pass p serves variant order[j][p % CORPUS_VARIANTS] of every stratum j
        rng = random.Random(f"corpus-mix:{self.seed}")
        self.order = [rng.sample(range(CORPUS_VARIANTS), CORPUS_VARIANTS)
                      for _ in range(CORPUS_STRATA)]
        self.build_universe(tracer)
        self.pool = [self.item(j, self.order[j][0]) for j in range(CORPUS_STRATA)]

    def build_universe(self, tracer) -> None:
        self.pool = [self.item(j, r) for j in range(CORPUS_STRATA) for r in range(CORPUS_VARIANTS)]
        self.inputs = {item.key: self.make_input(item, tracer) for item in self.pool}

    @staticmethod
    def item(j: int, r: int) -> Item:
        return Item(f"c{j:03d}.{r}", (j, r))

    def stream(self):
        for pass_no in itertools.count():
            for j in range(CORPUS_STRATA):
                yield pass_no, j, self.item(j, self.order[j][pass_no % CORPUS_VARIANTS])

    def warm_up(self, tracer) -> None:
        for pos, item in enumerate(self.pool[:8]):
            self.execute(self.prepare(item, "w", 0, pos), tracer)

    def prepare(self, item: Item, tag: str, pass_no: int, pos: int) -> Request:
        # a prefix per pass and position: no tree is ever presented twice
        prefix = f"{tag}{pass_no}_{pos}."
        data, points = self.inputs[item.key]
        data = relabel(data, prefix)
        return Request(item, prefix, (data, make_points(self.lib, points, prefix)),
                       tree_key=canonical(data))

    def execute(self, req: Request, tr):
        lib = self.lib
        data, points = req.payload
        tree = tr.call("curves.from_data", lib.CurveTree.from_data, data)
        # build the lazy tail index here, so no later layer is charged for it
        tails = tr.call("curves.tails", getattr, tree, "tails")
        report = tr.call("classify.classify", lib.classify, tree)
        x = report.principal
        seq = tr.call("abel.e_sequence", lib.e_sequence, tree, x, CORPUS_DMAX)
        quasi = tuple(
            tr.call("stability.enumerate_quasistable", lib.enumerate_quasistable, tree, d, x)
            for d in QUASI_DEGREES
        )
        semi = tr.call("stability.enumerate_semistable", lib.enumerate_semistable, tree, 2)
        verdicts = tuple(
            tr.call("stability.is_quasistable", lib.is_quasistable, tree, md, x) for md in seq
        )
        image = tr.call("abel.abel_d", lib.abel_d, tree, x, points)
        comparison = None
        if report.in_delta_half:
            comparison = tr.call(
                "compare.compare_principals", lib.compare_principals, tree, CORPUS_DMAX
            )
        tr.count("curves.components", len(tree.ids))
        tr.count("stability.multidegrees_emitted", sum(map(len, quasi)) + len(semi))
        tr.count("abel.e_sequence.degrees", CORPUS_DMAX)
        tr.count("abel.abel_d.points", len(points))
        return tree, tails, report, seq, quasi, semi, verdicts, image, comparison

    def normalize(self, req: Request, result) -> str:
        tree, tails, report, seq, quasi, semi, verdicts, image, comparison = result
        out = {
            "tails": tails_json(tree, tails),
            "classify": [list(report.central), list(report.semicentral),
                         report.in_delta_half, report.principal],
            "eseq": [md.degrees for md in seq],
            "quasi": [[md.degrees for md in mds] for mds in quasi],
            "semi": [md.degrees for md in semi],
            "verdicts": list(verdicts),
            "abel": divisor_json(self.lib, image),
            "compare": None if comparison is None else [
                comparison.x1, comparison.x2, comparison.y1.node, comparison.y2.node,
                list(comparison.eta)],
        }
        return canonical(out).replace(req.prefix, "")

    def facts(self, req: Request, result) -> list[str]:
        lib = self.lib
        tree, tails, report, seq, quasi, semi, verdicts, image, comparison = result
        problems = tail_problems(tree.ids, len(tree.nodes), tails_json(tree, tails))
        problems += classification_problems(report.central, report.semicentral,
                                            report.in_delta_half, report.principal)
        x = report.principal
        for d, md in enumerate(seq, start=1):
            if sum(md.degrees) != d:
                problems.append(f"e_{d} has total {sum(md.degrees)}")
        for d, mds in zip(QUASI_DEGREES, quasi):
            if len(mds) != 1:
                problems.append(f"{len(mds)} X-quasistable multidegrees in degree {d}")
            elif mds[0] != seq[d - 1]:
                problems.append(f"the X-quasistable multidegree of degree {d} is not e_{d}")
        if seq[1] not in semi:
            problems.append("e_2 missing from the semistable multidegrees of degree 2")
        if not all(verdicts):
            problems.append("some e_d is not X-quasistable")
        if coefficient_sums(tree.ids, image) != seq[CORPUS_POINTS - 1].degrees:
            problems.append("multidegree of abel_d differs from e_d")
        _, points = req.payload
        if lib.abel_d(tree, x, points[::-1]) != image:
            problems.append("abel_d changes when the configuration is reversed")
        if comparison is not None and not set(comparison.eta) <= {-1, 0, 1}:
            problems.append(f"eta outside {{-1, 0, 1}}: {comparison.eta}")
        if len(tree.ids) <= ORACLE_MAX_COMPONENTS:
            problems += self.oracle_problems(tree, x, seq, verdicts)
        return problems

    def oracle_problems(self, tree, x, seq, verdicts) -> list[str]:
        """Verdicts against the all-subsets brute force in tests/oracles.py."""
        genus_map, edges = self.oracles.tree_data(tree)
        problems = []
        for d, (md, verdict) in enumerate(zip(seq, verdicts), start=1):
            degrees = tree.multidegree_as_dict(md)
            if self.oracles.quasistable_all_subsets(genus_map, edges, degrees, x) != verdict:
                problems.append(f"is_quasistable(e_{d}) disagrees with the brute force")
        neighbours = sorted({b for a, b in edges if a == x} | {a for a, b in edges if b == x})
        if neighbours:
            for d in QUASI_DEGREES:
                # uniqueness: moving one unit off e_d must break X-quasistability
                degrees = tree.multidegree_as_dict(seq[d - 1])
                degrees[x] -= 1
                degrees[neighbours[0]] += 1
                if self.oracles.quasistable_all_subsets(genus_map, edges, degrees, x):
                    problems.append(f"a second X-quasistable multidegree in degree {d}")
        return problems


# -- chain-session ------------------------------------------------------------

CHAIN_SIZES = (40, 66, 93, 120)
DMAX_RANGE = (5, 60)
DMAX_STRATA = 4
DMAX_WIDTH = (DMAX_RANGE[1] - DMAX_RANGE[0] + 1) // DMAX_STRATA
ABEL_POINTS = range(2, 13)
ABEL_VARIANTS = 3


def session_chain(slot: int) -> dict:
    """The session's chain of length CHAIN_SIZES[slot], with fixed genera.

    The chains are the same for every seed: with genera redrawn per seed,
    e_sequence cost on one chain moves by about 15%, which would swamp the
    run-to-run comparison.  The seed varies the queries instead.
    """
    return chain_data(CHAIN_SIZES[slot], random.Random(f"chain:{slot}"))


def spread_order(width: int) -> list[int]:
    """0..width-1 in bit-reversed order: any window of consecutive entries,
    read cyclically, covers the range about evenly."""
    bits = (width - 1).bit_length()
    return sorted(range(width), key=lambda v: int(f"{v:0{bits}b}"[::-1], 2))


def rotate(values: list[int], offset: int) -> list[int]:
    return values[offset:] + values[:offset]


def session_points(c: int, k: int, data: dict) -> list[tuple[str, str]]:
    m = ABEL_POINTS[k // ABEL_VARIANTS]
    return point_specs(data, m, random.Random(f"chain-abel:{c}:{k}"))


class ChainSession:
    """A few long chains, each loaded once, then construction queries."""

    name = "chain-session"
    in_process = True
    trace_passes = 2

    def __init__(self, lib, root: Path, seed: int):
        self.lib = lib
        self.root = root
        self.seed = seed
        self.oracles = None
        self.pool: list[Item] = []
        self.chains: list[dict] = []
        self.loaded: dict[str, tuple] = {}  # by id prefix: one loaded chain per slot and tag
        self.check_copies: dict[int, tuple] = {}

    def build(self, tracer) -> None:
        rng = random.Random(f"chain-session:{self.seed}")
        self.chains = [session_chain(slot) for slot in range(len(CHAIN_SIZES))]
        # Query slots run in a seeded order.  Pass p takes the value at
        # (offset + p) in the slot's spread order, with a seeded offset, so
        # every pass costs about the same, any run of passes covers each
        # stratum evenly, and a (chain, dmax) pair recurs only after
        # DMAX_WIDTH passes.
        self.slots = [(kind, slot, stratum, rotate(spread_order(width), rng.randrange(width)))
                      for slot in range(len(CHAIN_SIZES))
                      for kind, strata, width in (("eseq", DMAX_STRATA, DMAX_WIDTH),
                                                  ("abel", len(ABEL_POINTS), ABEL_VARIANTS))
                      for stratum in range(strata)]
        rng.shuffle(self.slots)
        first_pass = itertools.islice(self.stream(), len(CHAIN_SIZES) + len(self.slots))
        self.pool = [item for _, _, item in first_pass]

    def build_universe(self, tracer) -> None:
        self.chains = [session_chain(slot) for slot in range(len(CHAIN_SIZES))]
        self.pool = []
        for c in range(len(CHAIN_SIZES)):
            self.pool.append(self.load_item(c))
            for stratum in range(DMAX_STRATA):
                self.pool += [self.eseq_item(c, stratum, r) for r in range(DMAX_WIDTH)]
            for stratum in range(len(ABEL_POINTS)):
                self.pool += [self.abel_item(c, stratum, r) for r in range(ABEL_VARIANTS)]

    @staticmethod
    def load_item(slot: int) -> Item:
        return Item(f"h{slot}.load", ("load", slot))

    @staticmethod
    def eseq_item(slot: int, stratum: int, r: int) -> Item:
        dmax = DMAX_RANGE[0] + DMAX_WIDTH * stratum + r
        return Item(f"h{slot}.e{dmax}", ("eseq", slot, dmax))

    def abel_item(self, slot: int, stratum: int, r: int) -> Item:
        k = ABEL_VARIANTS * stratum + r
        return Item(f"h{slot}.a{k}", ("abel", slot, session_points(slot, k, self.chains[slot])))

    def stream(self):
        pos = 0
        for pass_no in itertools.count():
            for slot in range(len(CHAIN_SIZES)):
                yield pass_no, pos, self.load_item(slot)
                pos += 1
            for kind, slot, stratum, rotation in self.slots:
                make = self.eseq_item if kind == "eseq" else self.abel_item
                yield pass_no, pos, make(slot, stratum, rotation[pass_no % len(rotation)])
                pos += 1

    def warm_up(self, tracer) -> None:
        data = relabel(chain_data(12, random.Random("warm-up")), "w.")
        tree = self.lib.CurveTree.from_data(data)
        x = self.lib.classify(tree).principal
        self.lib.e_sequence(tree, x, 5)
        self.lib.abel_d(tree, x, make_points(self.lib, point_specs(data, 3, random.Random(0)), ""))

    def prepare(self, item: Item, tag: str, pass_no: int, pos: int) -> Request:
        kind, slot = item.spec[:2]
        # the prefix is the same on every pass: later passes reload equal trees
        prefix = f"{tag}{slot}."
        if kind == "load":
            data = relabel(self.chains[slot], prefix)
            return Request(item, prefix, data, tree_key=canonical(data))
        if kind == "eseq":
            return Request(item, prefix, item.spec[2])
        return Request(item, prefix, make_points(self.lib, item.spec[2], prefix))

    def execute(self, req: Request, tr):
        lib = self.lib
        kind, slot = req.item.spec[:2]
        if kind == "load":
            tree = tr.call("curves.from_data", lib.CurveTree.from_data, req.payload)
            tails = tr.call("curves.tails", getattr, tree, "tails")
            report = tr.call("classify.classify", lib.classify, tree)
            tr.count("curves.components", len(tree.ids))
            self.loaded[req.prefix] = (tree, report.principal)
            return tree, tails, report
        tree, x = self.loaded[req.prefix]
        if kind == "eseq":
            tr.count("abel.e_sequence.degrees", req.payload)
            return tr.call("abel.e_sequence", lib.e_sequence, tree, x, req.payload)
        tr.count("abel.abel_d.points", len(req.payload))
        return tr.call("abel.abel_d", lib.abel_d, tree, x, req.payload)

    def normalize(self, req: Request, result) -> str:
        kind = req.item.spec[0]
        if kind == "load":
            tree, tails, report = result
            out = [tails_json(tree, tails), list(report.central), list(report.semicentral),
                   report.in_delta_half, report.principal]
        elif kind == "eseq":
            out = [md.degrees for md in result]
        else:
            out = divisor_json(self.lib, result)
        return canonical(out).replace(req.prefix, "")

    def check_copy(self, slot: int) -> tuple:
        """A relabelled copy for checks, so they never warm the timed caches."""
        if slot not in self.check_copies:
            prefix = f"chk{slot}."
            tree = self.lib.CurveTree.from_data(relabel(self.chains[slot], prefix))
            x = self.lib.classify(tree).principal
            seq = self.lib.e_sequence(tree, x, ABEL_POINTS[-1])
            self.check_copies[slot] = (prefix, tree, x, seq)
        return self.check_copies[slot]

    def facts(self, req: Request, result) -> list[str]:
        kind, slot = req.item.spec[:2]
        if kind == "load":
            tree, tails, report = result
            return tail_problems(tree.ids, len(tree.nodes), tails_json(tree, tails)) + \
                classification_problems(report.central, report.semicentral,
                                        report.in_delta_half, report.principal)
        if kind == "eseq":
            return [f"e_{d} has total {sum(md.degrees)}"
                    for d, md in enumerate(result, start=1) if sum(md.degrees) != d]
        prefix, copy, x, seq = self.check_copy(slot)
        tree, _ = self.loaded[req.prefix]
        problems = []
        m = len(req.payload)
        if coefficient_sums(tree.ids, result) != seq[m - 1].degrees:
            problems.append(f"multidegree of abel_d on {m} points differs from e_{m}")
        if m % 3 == 0:
            # permutation spot-check on a third of the configurations
            rotated = make_points(self.lib, req.item.spec[2][1:] + req.item.spec[2][:1], prefix)
            again = self.lib.abel_d(copy, x, rotated)
            if canonical(divisor_json(self.lib, again)).replace(prefix, "") != \
                    canonical(divisor_json(self.lib, result)).replace(req.prefix, ""):
                problems.append("abel_d changes when the configuration is rotated")
        return problems


# -- cli ----------------------------------------------------------------------

CLI_COMMANDS = ("validate", "classify", "tails", "enumerate", "eseq", "abel", "compare", "gen")
CLI_CHAIN_COMMANDS = ("tails", "eseq", "abel")
CLI_SMALL_VARIANTS = 64
# One chain request per command: 3 of 71 requests, so p90 lies well inside
# the many small-tree requests.  With 1 chain request in 6 it fell between
# two chain requests whose costs differ by a quarter; with 1 in 12, at the
# extreme tail of the small ones.  The chain is the same for every seed,
# since its genera alone move a request's time by about 10%.
CLI_CHAIN_SIZES = (150,)
CLI_CHAIN_DMAX = 15
CLI_CHAIN_POINTS = 4
CLI_PER_COMMAND = 8
CLI_INVALID_PER_POOL = 4
CLI_TIMEOUT_S = 30.0

# invalid inputs: (file text, command arguments after the file)
CLI_INVALID = (
    (canonical(tree_data([("C1", 2), ("C2", 0)], [("n", "C1", "C2")])), ("classify",)),
    (canonical(tree_data([("A", 1), ("B", 1), ("C", 1)],
                         [("x", "A", "B"), ("y", "B", "C"), ("z", "C", "A")])), ("tails",)),
    ('{"components": [{"id": "C1", "genus": 3}], "nodes": [], "extra": 1}', ("eseq", "--dmax", "3")),
    (canonical(tree_data([("C1", 1), ("C1", 2)], [("n", "C1", "C1")])), ("abel", "--points", "C1:p")),
    (canonical(tree_data([("C1", 1)], [])), ("enumerate", "--degree", "1")),
    ('{"components": [{"id": "C1", "genus": 2}', ("classify",)),
    (canonical(tree_data([("C1", 1), ("C2", 1)], [("n", "C1", "C9")])), ("tails",)),
    (canonical(tree_data([("C1", 2), ("C2", 1)], [("n", "C2", "C2")])), ("compare", "--dmax", "2")),
)


def cli_small_tree(lib, command: str, i: int, tracer) -> tuple[object, dict]:
    c = CLI_COMMANDS.index(command)
    if command == "compare":
        spec = lib.GenSpec(4 + 2 * (i % 5), 2 + i % 5, 1000 * c + i, True)
    else:
        genus, max_components = 2 + (5 * i) % 11, 1 + i % 6
        half = genus % 2 == 0 and max_components >= 2 and i % 4 == 0
        spec = lib.GenSpec(genus, max_components, 1000 * c + i, half)
    return spec, tracer.call("generator.random_tree", lib.random_tree, spec).to_data()


def cli_chain(size: int) -> dict:
    return chain_data(CLI_CHAIN_SIZES[size], random.Random(f"cli-chain:{size}"))


def points_arg(specs) -> str:
    return ",".join(f"{head}:{rest}" for head, rest in specs)


class Cli:
    """One ``python -m treeabel.cli`` process per request, one at a time."""

    name = "cli"
    in_process = False
    trace_passes = 1

    def __init__(self, lib, root: Path, seed: int):
        self.lib = lib
        self.root = root
        self.seed = seed
        self.oracles = None
        self.pool: list[Item] = []
        self.files: dict[str, tuple[Path, str | None, tuple, dict | None]] = {}
        self.dir = root / "bench" / "out" / f"cli-{seed}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def make_input(self, item: Item, tracer) -> tuple[str | None, tuple, object]:
        """(file text or None, argv after ``treeabel.cli``, data for the checks)."""
        kind = item.spec[0]
        if kind == "invalid":
            text, args = CLI_INVALID[item.spec[1]]
            return text, args, None
        rng = random.Random(f"cli:{item.key}")
        if kind == "chain":
            _, cmd, size = item.spec
            data = cli_chain(size)
            args = {"tails": (), "eseq": ("--dmax", str(CLI_CHAIN_DMAX)),
                    "abel": ("--points", points_arg(point_specs(data, CLI_CHAIN_POINTS, rng)))}[cmd]
            return canonical(data), (cmd, *args), data
        _, cmd, i = item.spec
        spec, data = cli_small_tree(self.lib, cmd, i, tracer)
        if cmd == "gen":
            args = ["--genus", str(spec.genus), "--max-components", str(spec.max_components),
                    "--seed", str(spec.seed)] + (["--delta-half"] if spec.force_delta_half else [])
            return None, ("gen", *args), data
        args = {
            "enumerate": ("--degree", str(1 + i % 3), "--principal"),
            "eseq": ("--dmax", str(3 + i % 6)),
            "abel": ("--points", points_arg(point_specs(data, 2 + i % 4, rng))),
            "compare": ("--dmax", str(3 + i % 6)),
        }.get(cmd, ())
        return canonical(data), (cmd, *args), data

    def build(self, tracer) -> None:
        rng = random.Random(f"cli:{self.seed}")
        groups = [
            [Item(f"{cmd}.{i}", ("small", cmd, i))
             for i in rng.sample(range(CLI_SMALL_VARIANTS), CLI_PER_COMMAND)]
            for cmd in CLI_COMMANDS
        ]
        groups += [
            [self.chain_item(cmd, size) for size in range(len(CLI_CHAIN_SIZES))]
            for cmd in CLI_CHAIN_COMMANDS
        ]
        groups.append([Item(f"invalid.{i}", ("invalid", i))
                       for i in rng.sample(range(len(CLI_INVALID)), CLI_INVALID_PER_POOL)])
        self.pool = interleave(groups)
        self.write_files(tracer)

    def build_universe(self, tracer) -> None:
        self.dir = self.root / "bench" / "out" / "cli-universe"
        self.pool = [Item(f"{cmd}.{i}", ("small", cmd, i))
                     for cmd in CLI_COMMANDS for i in range(CLI_SMALL_VARIANTS)]
        self.pool += [self.chain_item(cmd, size)
                      for cmd in CLI_CHAIN_COMMANDS for size in range(len(CLI_CHAIN_SIZES))]
        self.pool += [Item(f"invalid.{i}", ("invalid", i)) for i in range(len(CLI_INVALID))]
        self.write_files(tracer)

    @staticmethod
    def chain_item(cmd: str, size: int) -> Item:
        return Item(f"chain-{cmd}.{size}", ("chain", cmd, size))

    def write_files(self, tracer) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files = {}
        for item in self.pool:
            text, args, data = self.make_input(item, tracer)
            path = self.dir / f"{item.key}.json"
            if text is not None:
                path.write_text(text, encoding="utf-8")
            self.files[item.key] = (path, text, args, data)

    def argv(self, item: Item) -> list[str]:
        path, text, args, _ = self.files[item.key]
        cmd, *rest = args
        files = [] if text is None else [str(path)]
        return [sys.executable, "-m", "treeabel.cli", cmd, *files, *rest]

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S, check=False)

    def stream(self):
        return cycle(self.pool)

    def warm_up(self, tracer) -> None:
        for item in self.pool[:2]:
            self.run(self.argv(item))

    def prepare(self, item: Item, tag: str, pass_no: int, pos: int) -> Request:
        return Request(item, "", self.argv(item))

    def execute(self, req: Request, tr):
        command = f"cli.{self.files[req.item.key][2][0]}"
        if not tr.records:
            return tr.call(command, self.run, req.payload)
        # traced: the same arguments through bench/cli_child.py, which
        # writes the child's own spans for the tracer to adopt
        spans_file = self.dir / "spans.json"
        spans_file.unlink(missing_ok=True)
        child = [sys.executable, str(self.root / "bench" / "cli_child.py"), str(spans_file)]
        proc = tr.call(command, self.run, child + req.payload[3:])
        if spans_file.exists():
            tr.adopt(json.loads(spans_file.read_text(encoding="utf-8")))
        return proc

    def normalize(self, req: Request, proc) -> str:
        try:
            stdout = json.loads(proc.stdout) if proc.stdout else None
        except json.JSONDecodeError:
            stdout = proc.stdout
        return canonical({"exit": proc.returncode, "stdout": stdout})

    def facts(self, req: Request, proc) -> list[str]:
        _, text, args, data = self.files[req.item.key]
        if data is None:
            if proc.returncode != 1 or proc.stdout or not proc.stderr.startswith("error:") \
                    or "Traceback" in proc.stderr:
                return [f"invalid input gave exit {proc.returncode}, stderr {proc.stderr[:80]!r}"]
            return []
        if proc.returncode != 0:
            return [f"exit {proc.returncode}: {proc.stderr[:120]!r}"]
        out = json.loads(proc.stdout)
        return getattr(self, f"_facts_{args[0]}")(data, args, out)

    # per-command facts, each read from the CLI's own output where possible

    def _facts_validate(self, data, args, out):
        return [] if out == {"ok": True, "violations": []} else [f"valid tree reported {out}"]

    def _facts_classify(self, data, args, out):
        return classification_problems(out["central"], out["semicentral"],
                                       out["in_delta_half"], out["principal"])

    def _facts_tails(self, data, args, out):
        ids = [c["id"] for c in data["components"]]
        return tail_problems(ids, len(data["nodes"]), [[t["node"], t["side"]] for t in out])

    def _facts_enumerate(self, data, args, out):
        degree = int(args[2])
        if len(out) != 1:
            return [f"{len(out)} X-quasistable multidegrees in degree {degree}"]
        return [] if sum(out[0].values()) == degree else ["quasistable total is wrong"]

    def _facts_eseq(self, data, args, out):
        problems = [] if len(out) == int(args[2]) else ["wrong number of e_d"]
        return problems + [f"e_{d} has total {sum(md)}"
                           for d, md in enumerate(out, start=1) if sum(md) != d]

    def _facts_abel(self, data, args, out):
        lib = self.lib
        points = len(args[2].split(","))
        sums = {cid: sum(coeffs.values()) for cid, coeffs in out["divisor"].items()}
        problems = [] if sums == out["multidegree"] else ["divisor does not sum to its multidegree"]
        tree = lib.CurveTree.from_data(data)
        e_d = lib.e_sequence(tree, lib.classify(tree).principal, points)[-1]
        if [out["multidegree"][cid] for cid in tree.ids] != list(e_d.degrees):
            problems.append(f"multidegree of the image differs from e_{points}")
        return problems

    def _facts_compare(self, data, args, out):
        eta, dmax = out["eta"], int(args[2])
        problems = [] if len(eta) == dmax and set(eta) <= {-1, 0, 1} else [f"bad eta {eta}"]
        ids = sorted(c["id"] for c in data["components"])
        for d, (a, b) in enumerate(zip(out["e1_sequence"], out["e2_sequence"]), start=1):
            diff = dict(zip(ids, (p - q for p, q in zip(a, b))))
            want = dict.fromkeys(ids, 0)
            want[out["x1"]] += eta[d - 1]
            want[out["x2"]] -= eta[d - 1]
            if diff != want:
                problems.append(f"e_1,{d} - e_2,{d} is not eta_{d} times the twist")
        return problems

    def _facts_gen(self, data, args, out):
        report = self.lib.validate(out)
        problems = [] if report.ok else [f"generated tree is invalid: {report.violations}"]
        return problems + ([] if out == data else ["gen output differs from random_tree"])


WORKLOADS = {cls.name: cls for cls in (CorpusMix, ChainSession, Cli)}
