"""Which layers each entry point loads, and the names that load the rest.

A command imports only the modules it runs: ``treeabel`` loads ``curves``
and ``classify``, and every other layer loads on first use.  The module
sets are read in a fresh interpreter, since this test process has already
imported every layer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treeabel
from treeabel import cli
from treeabel.cli import main

SRC = str(Path(treeabel.__file__).resolve().parents[1])
TWO22 = {
    "components": [{"id": "C1", "genus": 2}, {"id": "C2", "genus": 2}],
    "nodes": [{"id": "n", "ends": ["C1", "C2"]}],
}
BASE = {"treeabel.cli", "treeabel.curves", "treeabel.classify"}
GEN_ARGS = ["--genus", "3", "--max-components", "3", "--seed", "1"]


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports treeabel from this tree; its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return proc.stdout


def loaded_after(argv: list[str]) -> set[str]:
    """The treeabel modules loaded once ``main(argv)`` returns, in a fresh interpreter."""
    out = fresh(
        "import contextlib, io, json, sys\n"
        "from treeabel.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    main({argv!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('treeabel.'))))\n"
    )
    return set(json.loads(out))


@pytest.fixture
def two22_file(tmp_path):
    path = tmp_path / "two22.json"
    path.write_text(json.dumps(TWO22))
    return str(path)


# each command's layers beyond curves and classify
ROWS = [
    (["validate", "{file}"], set()),
    (["classify", "{file}"], set()),
    (["tails", "{file}"], set()),
    (["enumerate", "{file}", "--degree", "1"], {"stability"}),
    (["eseq", "{file}", "--dmax", "3"], {"abel"}),
    (["abel", "{file}", "--points", "C1:p,node:n"], {"abel"}),
    (["compare", "{file}", "--dmax", "3"], {"abel", "compare"}),
    (["gen", *GEN_ARGS], {"generator"}),
]


@pytest.mark.parametrize("argv, layers", ROWS, ids=[argv[0] for argv, _ in ROWS])
def test_each_command_loads_only_its_layers(two22_file, argv, layers):
    argv = [arg.format(file=two22_file) for arg in argv]
    assert loaded_after(argv) == BASE | {f"treeabel.{layer}" for layer in layers}


def test_invalid_file_loads_no_layer_beyond_the_parse(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"components": [{"id": "C1", "genus": 2}')
    assert loaded_after(["compare", str(path), "--dmax", "3"]) == BASE


@pytest.mark.parametrize("first", ["abel", "compare", "stability"])
def test_classify_stays_the_function_whichever_layer_loads_first(first):
    out = fresh(
        f"import treeabel.{first}, treeabel\n"
        "print(callable(treeabel.classify), treeabel.classify.__module__)\n"
    )
    assert out.split() == ["True", "treeabel.classify"]


def test_dir_and_star_import_cover_all():
    out = fresh(
        "import json, treeabel\n"
        "names = {}\n"
        "exec('from treeabel import *', names)\n"
        "print(json.dumps([sorted(dir(treeabel)), sorted(names), sorted(treeabel.__all__)]))\n"
    )
    listed, bound, public = json.loads(out)
    assert set(listed) >= set(public)
    assert set(bound) - {"__builtins__"} == set(public)


@pytest.mark.parametrize("module", [treeabel, cli])
def test_unknown_attribute_is_named(module):
    with pytest.raises(AttributeError, match="'nope'"):
        module.nope


@pytest.mark.parametrize(
    "name, argv",
    [
        ("e_sequence", ["eseq", "{file}", "--dmax", "3"]),
        ("abel_d", ["abel", "{file}", "--points", "C1:p"]),
        ("compare_principals", ["compare", "{file}", "--dmax", "3"]),
        ("random_tree", ["gen", *GEN_ARGS]),
        ("enumerate_quasistable", ["enumerate", "{file}", "--degree", "1", "--principal"]),
    ],
)
def test_main_calls_the_bound_layer_function(monkeypatch, capsys, two22_file, name, argv):
    def refuse(*args):
        raise ValueError(f"{name} replaced")

    monkeypatch.setattr(cli, name, refuse)
    assert main([arg.format(file=two22_file) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: {name} replaced\n"


def test_a_name_bound_before_first_use_is_kept(two22_file):
    out = fresh(
        "import treeabel.cli as cli\n"
        "cli.e_sequence = lambda tree, xpr, dmax: [tree.zero_multidegree()]\n"
        f"cli.main(['eseq', {two22_file!r}, '--dmax', '3'])\n"
    )
    assert out == "[[0,0]]\n"
