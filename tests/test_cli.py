from __future__ import annotations

import json

import pytest

from treeabel import CurveTree, cli
from treeabel.cli import main


@pytest.fixture
def two22_file(tmp_path):
    path = tmp_path / "two22.json"
    path.write_text(
        json.dumps(
            {
                "components": [{"id": "C1", "genus": 2}, {"id": "C2", "genus": 2}],
                "nodes": [{"id": "n", "ends": ["C1", "C2"]}],
            }
        )
    )
    return str(path)


@pytest.fixture
def g5_41_file(tmp_path):
    path = tmp_path / "g5_41.json"
    path.write_text(
        json.dumps(
            {
                "components": [{"id": "C1", "genus": 4}, {"id": "C2", "genus": 1}],
                "nodes": [{"id": "n", "ends": ["C1", "C2"]}],
            }
        )
    )
    return str(path)


@pytest.fixture
def chain111_file(tmp_path):
    path = tmp_path / "chain111.json"
    path.write_text(
        json.dumps(
            {
                "components": [
                    {"id": "C1", "genus": 1},
                    {"id": "C2", "genus": 1},
                    {"id": "C3", "genus": 1},
                ],
                "nodes": [
                    {"id": "n1", "ends": ["C1", "C2"]},
                    {"id": "n2", "ends": ["C2", "C3"]},
                ],
            }
        )
    )
    return str(path)


def star_data(leaves: int) -> dict:
    """A genus-0 hub joined to ``leaves`` genus-1 components."""
    return {
        "components": [{"id": "H", "genus": 0}]
        + [{"id": f"L{i}", "genus": 1} for i in range(leaves)],
        "nodes": [{"id": f"n{i}", "ends": ["H", f"L{i}"]} for i in range(leaves)],
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_validate_ok(self, capsys, two22_file):
        code, out, _ = run(capsys, "validate", two22_file)
        assert code == 0
        assert json.loads(out) == {"ok": True, "violations": []}

    def test_validate_bad_tree(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "components": [{"id": "C1", "genus": 2}, {"id": "C2", "genus": 0}],
                    "nodes": [{"id": "n", "ends": ["C1", "C2"]}],
                }
            )
        )
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert any("stability" in v for v in payload["violations"])

    def test_enumerate_principal_degree_one(self, capsys, two22_file):
        code, out, _ = run(capsys, "enumerate", two22_file, "--degree", "1", "--principal")
        assert code == 0
        assert out == '[{"C1":1,"C2":0}]\n'

    def test_enumerate_semistable(self, capsys, two22_file):
        code, out, _ = run(capsys, "enumerate", two22_file, "--degree", "1")
        assert code == 0
        assert json.loads(out) == [{"C1": 0, "C2": 1}, {"C1": 1, "C2": 0}]

    def test_enumerate_quasistable_named(self, capsys, two22_file):
        code, out, _ = run(
            capsys, "enumerate", two22_file, "--degree", "2", "--quasistable", "C1"
        )
        assert code == 0
        assert json.loads(out) == [{"C1": 1, "C2": 1}]

    def test_eseq(self, capsys, g5_41_file):
        code, out, _ = run(capsys, "eseq", g5_41_file, "--dmax", "2")
        assert code == 0
        assert out == "[[1,0],[2,0]]\n"

    def test_classify(self, capsys, chain111_file):
        code, out, _ = run(capsys, "classify", chain111_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["principal"] == "C2"
        assert payload["in_delta_half"] is False

    def test_tails(self, capsys, two22_file):
        code, out, _ = run(capsys, "tails", two22_file)
        assert code == 0
        assert json.loads(out) == [
            {"node": "n", "side": ["C1"]},
            {"node": "n", "side": ["C2"]},
        ]

    def test_abel_node_point(self, capsys, two22_file):
        code, out, _ = run(capsys, "abel", two22_file, "--points", "node:n")
        assert code == 0
        payload = json.loads(out)
        assert payload["multidegree"] == {"C1": 1, "C2": 0}
        assert payload["divisor"] == {"C1": {"n@C1": 1}, "C2": {}}

    def test_abel_smooth_points(self, capsys, two22_file):
        code, out, _ = run(capsys, "abel", two22_file, "--points", "C1:p,C1:q")
        assert code == 0
        payload = json.loads(out)
        assert payload["divisor"] == {
            "C1": {"p": 1, "q": 1, "n@C1": -1},
            "C2": {"n@C2": 1},
        }

    def test_compare(self, capsys, two22_file):
        code, out, _ = run(capsys, "compare", two22_file, "--dmax", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["eta"] == [1, 0]
        assert payload["ok"] is True
        assert payload["e1_sequence"] == [[1, 0], [1, 1]]

    def test_gen_round_trip(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "gen", "--genus", "6", "--max-components", "5", "--seed", "11"
        )
        assert code == 0
        path = tmp_path / "gen.json"
        path.write_text(out)
        for argv in (
            ["validate", str(path)],
            ["classify", str(path)],
            ["tails", str(path)],
            ["enumerate", str(path), "--degree", "2", "--principal"],
            ["eseq", str(path), "--dmax", "3"],
            ["abel", str(path), "--points", "C1:p"],
        ):
            assert main(argv) == 0, argv
            capsys.readouterr()

    def test_gen_deterministic(self, capsys):
        _, first, _ = run(capsys, "gen", "--genus", "6", "--max-components", "4", "--seed", "3")
        _, second, _ = run(capsys, "gen", "--genus", "6", "--max-components", "4", "--seed", "3")
        assert first == second


class TestErrors:
    def test_usage_error_exits_two(self, two22_file):
        with pytest.raises(SystemExit) as err:
            main(["enumerate", two22_file])  # missing --degree
        assert err.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run(capsys, "classify", "/nonexistent/tree.json")
        assert code == 1
        assert err.startswith("error:") and "No such file" in err
        assert "/nonexistent/tree.json" in err

    def test_invalid_tree_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"components": [{"id": "C1", "genus": 1}], "nodes": []}')
        code, _, err = run(capsys, "eseq", str(path), "--dmax", "2")
        assert code == 1
        assert "total genus" in err

    def test_unknown_component_named_in_error(self, capsys, two22_file):
        code, _, err = run(
            capsys, "enumerate", two22_file, "--degree", "1", "--quasistable", "C9"
        )
        assert (code, err) == (1, "error: unknown component 'C9'\n")

    @pytest.mark.parametrize(
        "command, extra",
        [("eseq", ["--dmax", "2"]), ("abel", ["--points", "C1:p"])],
    )
    def test_unknown_principal_override(self, capsys, two22_file, command, extra):
        code, out, err = run(
            capsys, command, two22_file, *extra, "--principal-override", "C9"
        )
        assert (code, out, err) == (1, "", "error: unknown component 'C9'\n")

    def test_bad_point_token(self, capsys, two22_file):
        code, _, err = run(capsys, "abel", two22_file, "--points", "justalabel")
        assert code == 1
        assert "justalabel" in err

    def test_smooth_label_with_at_sign_rejected(self, capsys, two22_file):
        # "n@C2" would be printed under the same key as the branch of n on C2
        code, out, err = run(capsys, "abel", two22_file, "--points", "C2:p,C2:n@C2")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "n@C2" in err

    @pytest.mark.parametrize("command", ["validate", "tails"])
    def test_duplicate_json_key_rejected(self, capsys, tmp_path, command):
        path = tmp_path / "dup.json"
        path.write_text(
            '{"components": [{"id": "C1", "genus": 2}],'
            ' "components": [{"id": "C1", "genus": 2}, {"id": "C2", "genus": 2}],'
            ' "nodes": [{"id": "n", "ends": ["C1", "C2"]}]}'
        )
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "duplicate key 'components'" in err

    @pytest.mark.parametrize("command", ["validate", "classify"])
    def test_deeply_nested_json_is_domain_error(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "nested too deeply" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"components": [{"id": "C1", "genus": 2}', "Expecting ',' delimiter"),
            ('{"nodes": [], "nodes": []}', "duplicate key 'nodes' in a JSON object"),
        ],
    )
    def test_json_errors_name_the_file(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: {message}")

    def test_tail_id_limit_is_counted_before_the_tails(self, capsys, monkeypatch, chain111_file):
        # 3 components: two tails at each of 2 nodes, 6 ids in all
        monkeypatch.setattr(cli, "MAX_TAIL_IDS", 6)
        code, out, _ = run(capsys, "tails", chain111_file)
        assert code == 0 and sum(len(tail["side"]) for tail in json.loads(out)) == 6
        monkeypatch.setattr(cli, "MAX_TAIL_IDS", 5)
        monkeypatch.setattr(CurveTree, "tails", property(lambda tree: pytest.fail("tails read")))
        assert run(capsys, "tails", chain111_file) == (
            1,
            "",
            "error: 3 components give 6 tail ids, over the limit of 5\n",
        )

    @pytest.mark.parametrize("command", ["eseq", "compare"])
    def test_dmax_over_the_cost_limit(self, capsys, two22_file, command):
        dmax = cli.MAX_DEGREE_WORK // 2 + 1
        code, out, err = run(capsys, command, two22_file, "--dmax", str(dmax))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and f"--dmax {dmax} on 2 components" in err

    def test_dmax_limit_is_on_degrees_times_components(self, capsys, monkeypatch, two22_file):
        monkeypatch.setattr(cli, "MAX_DEGREE_WORK", 6)
        assert run(capsys, "eseq", two22_file, "--dmax", "3")[:2] == (0, "[[1,0],[1,1],[2,1]]\n")
        code, _, err = run(capsys, "eseq", two22_file, "--dmax", "4")
        assert code == 1 and "limit of 6" in err

    def test_semistable_count_over_the_limit(self, capsys, tmp_path):
        # a genus-0 hub with 17 genus-1 leaves: each leaf takes degree 0 or 1 at d = 16
        path = tmp_path / "star.json"
        path.write_text(json.dumps(star_data(17)))
        code, out, err = run(capsys, "enumerate", str(path), "--degree", "16")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "gives 131072 semistable multidegrees" in err
        assert f"limit of {cli.MAX_MULTIDEGREES}" in err
        code, out, _ = run(capsys, "enumerate", str(path), "--degree", "16", "--principal")
        assert code == 0 and len(json.loads(out)) == 1

    def test_huge_semistable_count_printed_as_a_power_of_two(self, capsys, tmp_path):
        # past about 14,000 leaves the count has more digits than str(int) allows
        path = tmp_path / "star.json"
        path.write_text(json.dumps(star_data(60)))
        code, out, err = run(capsys, "enumerate", str(path), "--degree", "59")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "gives 2^60 semistable multidegrees" in err

    def test_multidegree_limit_is_on_the_output_count(self, capsys, monkeypatch, two22_file):
        monkeypatch.setattr(cli, "MAX_MULTIDEGREES", 2)
        assert run(capsys, "enumerate", two22_file, "--degree", "1")[:2] == (
            0,
            '[{"C1":0,"C2":1},{"C1":1,"C2":0}]\n',
        )
        monkeypatch.setattr(cli, "MAX_MULTIDEGREES", 1)
        code, _, err = run(capsys, "enumerate", two22_file, "--degree", "1")
        assert code == 1 and "gives 2 semistable multidegrees, over the limit of 1" in err
        assert run(capsys, "enumerate", two22_file, "--degree", "1", "--principal")[0] == 0

    def test_point_count_over_the_limit(self, capsys, monkeypatch, two22_file):
        many = ",".join(["C1:p"] * (cli.MAX_POINTS + 1))
        code, out, err = run(capsys, "abel", two22_file, "--points", many)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and f"{cli.MAX_POINTS + 1} points" in err
        monkeypatch.setattr(cli, "MAX_POINTS", 3)
        assert run(capsys, "abel", two22_file, "--points", "C1:p,,C1:p,C2:q")[0] == 0
        assert run(capsys, "abel", two22_file, "--points", "C1:p,C1:p,C2:q,C2:q")[0] == 1

    @pytest.mark.parametrize("flag", ["--genus", "--max-components"])
    def test_gen_size_over_the_limit(self, capsys, monkeypatch, flag):
        def gen(size):
            sizes = {"--genus": "3", "--max-components": "3", flag: str(size)}
            return run(capsys, "gen", "--seed", "0", *(x for pair in sizes.items() for x in pair))

        limit = cli.MAX_GEN_SIZE
        assert gen(limit + 1) == (1, "", f"error: {flag} {limit + 1} exceeds the limit of {limit}\n")
        monkeypatch.setattr(cli, "MAX_GEN_SIZE", 4)
        assert gen(4)[0] == 0
        assert gen(5)[:2] == (1, "")

    @pytest.mark.parametrize(
        "component, node, named",
        [
            ("node", "n", "component id 'node'"),
            ("a:b", "n", "component id 'a:b'"),
            ("a,b", "n", "component id 'a,b'"),
            (" C2", "n", "component id ' C2'"),
            ("C2", "m,n", "node id 'm,n'"),
        ],
    )
    def test_unaddressable_ids_rejected_by_abel(self, capsys, tmp_path, component, node, named):
        path = tmp_path / "ids.json"
        path.write_text(
            json.dumps(
                {
                    "components": [{"id": "C1", "genus": 2}, {"id": component, "genus": 2}],
                    "nodes": [{"id": node, "ends": ["C1", component]}],
                }
            )
        )
        code, out, err = run(capsys, "abel", str(path), "--points", "C1:p")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and named in err
        assert run(capsys, "classify", str(path))[0] == 0

    def test_override_requires_force_off_center(self, capsys, chain111_file):
        code, _, err = run(
            capsys, "eseq", chain111_file, "--dmax", "2", "--principal-override", "C1"
        )
        assert code == 1
        assert "C1" in err

    def test_override_with_force(self, capsys, chain111_file):
        code, out, _ = run(
            capsys,
            "eseq",
            chain111_file,
            "--dmax",
            "2",
            "--principal-override",
            "C1",
            "--force",
        )
        assert code == 0
        assert json.loads(out)[0] == [1, 0, 0]

    def test_compare_off_locus_is_domain_error(self, capsys, chain111_file):
        code, _, err = run(capsys, "compare", chain111_file, "--dmax", "2")
        assert code == 1
        assert "central" in err

    def test_gen_unsatisfiable(self, capsys):
        code, _, err = run(
            capsys,
            "gen",
            "--genus",
            "5",
            "--max-components",
            "4",
            "--seed",
            "0",
            "--delta-half",
        )
        assert code == 1
        assert "even genus" in err
