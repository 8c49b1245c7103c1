"""Property tests of the CLI contract, driving ``main`` in process on files.

Every run draws the same examples (derandomized, bounded), so the suite
stays deterministic and quick.
"""

from __future__ import annotations

import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treeabel import CurveTree, GenSpec, random_tree
from treeabel.cli import main

cli_settings = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

specs = st.builds(
    GenSpec,
    genus=st.integers(2, 10),
    max_components=st.integers(1, 8),
    seed=st.integers(0, 2**32),
    force_delta_half=st.booleans(),
).filter(
    lambda spec: not spec.force_delta_half or (spec.genus % 2 == 0 and spec.max_components >= 2)
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

commands = st.sampled_from(
    [
        ["validate"],
        ["classify"],
        ["tails"],
        ["enumerate", "--degree", "2"],
        ["enumerate", "--degree", "3", "--principal"],
        ["eseq", "--dmax", "4"],
        ["abel", "--points", "C1:p,C1:q"],
        ["compare", "--dmax", "4"],
    ]
)


def run(capsys, argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def paths(value, prefix=()):
    """Every position inside a JSON value, as a tuple of keys and indices."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


def mutate(payload, path, action, value):
    """Replace, delete or duplicate the entry at ``path``.

    The root is always replaced, and so is a dict entry asked to duplicate.
    """
    if not path:
        return value
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if action == "delete":
        del parent[key]
    elif action == "duplicate" and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(parent[key])))
    else:
        parent[key] = value
    return payload


class TestCliContract:
    @settings(cli_settings, max_examples=80)
    @given(spec=specs, data=st.data(), argv=commands)
    def test_mutated_or_truncated_tree_never_raises(self, capsys, tmp_path, spec, data, argv):
        payload = random_tree(spec).to_data()
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            path = data.draw(st.sampled_from(list(paths(payload))), label="path")
            action = data.draw(st.sampled_from(["replace", "delete", "duplicate"]), label="action")
            payload = mutate(payload, path, action, data.draw(json_values, label="value"))
        text = json.dumps(payload)
        if data.draw(st.integers(0, 4), label="truncate?") == 0:
            text = text[: data.draw(st.integers(0, len(text) - 1), label="length")]
        file = tmp_path / "tree.json"
        file.write_text(text)
        code, out, err = run(capsys, [argv[0], str(file), *argv[1:]])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 0:
            json.loads(out)
            assert err == ""
        elif argv[0] == "validate" and out:
            assert json.loads(out)["ok"] is False and err == ""
        else:
            assert out == "" and err.startswith("error:")

    @cli_settings
    @given(spec=specs)
    def test_data_round_trip(self, capsys, tmp_path, spec):
        tree = random_tree(spec)
        argv = ["gen", "--genus", str(spec.genus), "--max-components", str(spec.max_components)]
        argv += ["--seed", str(spec.seed)] + (["--delta-half"] if spec.force_delta_half else [])
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out) == tree.to_data()
        rebuilt = CurveTree.from_data(json.loads(out))
        assert rebuilt.to_data() == tree.to_data()
        assert rebuilt.tails == tree.tails and rebuilt.tail_genera == tree.tail_genera
        file = write(tmp_path / "tree.json", json.loads(out))
        assert run(capsys, ["validate", file]) == (0, '{"ok":true,"violations":[]}\n', "")

    @cli_settings
    @given(spec=specs, seed=st.integers(0, 2**32))
    def test_output_ignores_listing_order(self, capsys, tmp_path, spec, seed):
        payload = random_tree(spec).to_data()
        rng = random.Random(seed)
        shuffled = {
            "nodes": [
                {"ends": rng.sample(node["ends"], 2), "id": node["id"]}
                for node in rng.sample(payload["nodes"], len(payload["nodes"]))
            ],
            "components": rng.sample(payload["components"], len(payload["components"])),
        }
        canonical = write(tmp_path / "canonical.json", payload)
        permuted = write(tmp_path / "permuted.json", shuffled)
        for argv in (["classify"], ["tails"], ["eseq", "--dmax", "6"]):
            expected = run(capsys, [argv[0], canonical, *argv[1:]])
            assert expected[0] == 0
            assert run(capsys, [argv[0], permuted, *argv[1:]]) == expected

    @cli_settings
    @given(spec=specs, data=st.data())
    def test_order_preserving_rename_renames_the_output(self, capsys, tmp_path, spec, data):
        payload = random_tree(spec).to_data()
        # letters only: no id is `node` or holds the `:`, `,` and `@` separators
        names = st.text(alphabet="ABCxyz", min_size=1, max_size=4)
        renamed = {}
        for kind in ("components", "nodes"):
            old = sorted(entry["id"] for entry in payload[kind])
            new = data.draw(st.sets(names, min_size=len(old), max_size=len(old)), label=kind)
            renamed.update(zip(old, sorted(new)))

        def rename(value):
            if isinstance(value, str):
                return "@".join(renamed.get(part, part) for part in value.split("@"))
            if isinstance(value, list):
                return [rename(item) for item in value]
            if isinstance(value, dict):
                return {rename(key): rename(item) for key, item in value.items()}
            return value

        points = [["C1", "p"], ["C1", "q"]] + [["node", n["id"]] for n in payload["nodes"][:1]]
        outputs: dict[str, list] = {}
        for i, (tree, pts) in enumerate([(payload, points), (rename(payload), rename(points))]):
            file = write(tmp_path / f"tree{i}.json", tree)
            token = ",".join(f"{head}:{rest}" for head, rest in pts)
            for argv in (["classify"], ["tails"], ["eseq", "--dmax", "6"], ["abel", "--points"]):
                argv += [token] if argv[0] == "abel" else []
                code, out, err = run(capsys, [argv[0], file, *argv[1:]])
                assert (code, err) == (0, "")
                outputs.setdefault(argv[0], []).append(json.loads(out))
        for original, relabelled in outputs.values():
            assert relabelled == rename(original)
