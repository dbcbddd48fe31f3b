"""The package and the CLI load a module only when a caller uses it.

The load checks run in a fresh interpreter each, because this test process
has already imported every module.
"""

import importlib
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import hyperdense
from conftest import C5_MINUS_TEXT

# every name the package exports, by the module that defines it
EXPORTS = {
    "hypergraphs": [
        "Hypergraph", "HypergraphParseError", "VertexMap", "complete_hypergraph",
        "contains_copy", "count_embeddings", "count_homomorphisms", "enumerate_hypergraphs",
        "induced_edge_count", "is_embedding", "parse_hypergraph", "relabel",
        "serialize_hypergraph", "shadow",
    ],
    "rainbow": [
        "Conflict", "PairColouring", "ShadowColouring", "build_pattern_host",
        "find_rainbow_ordering", "forced_colouring", "random_pair_colouring",
        "verify_rainbow_colouring",
    ],
    "ternary": [
        "EmbeddingWitness", "build_kary", "find_kary_embedding", "is_frequent", "kary_edge",
        "kary_edge_count", "verify_kary_embedding",
    ],
    "density": [
        "DensityQuery", "DensityReport", "ProfileReport", "density_profile",
        "triple_density_check", "verify_density_certificate", "vertex_density_check",
    ],
    "reduced": [
        "CoreSelection", "MuDensityError", "ReducedHypergraph", "is_mu_dense",
        "select_rainbow_core", "verify_core",
    ],
    "inequalities": [
        "RHO", "TAU", "audit_kary_subsets", "binary_prefix_slice", "inequality_gap",
        "scan_inequality", "supersaturation_experiment",
    ],
}

LOADED = "sorted(m for m in sys.modules if m == 'numpy' or m.startswith('hyperdense.'))"


def fresh(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(hyperdense.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)


def test_import_loads_no_submodule_and_no_numpy():
    proc = fresh(f"import json, sys\nimport hyperdense\nprint(json.dumps({LOADED}))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["decide-pi1", "{file}"], ["cli", "hypergraphs", "rainbow", "seeding"]),
        (["optimality", "--r", "1", "--n", "2"], ["cli", "hypergraphs", "inequalities", "seeding", "ternary"]),
        # the exact subset audit runs the host's split recursion in pure Python
        (["audit-tn", "--level", "2"], ["cli", "hypergraphs", "inequalities", "seeding", "ternary"]),
    ],
)
def test_cli_command_loads_only_its_modules(tmp_path, argv, loaded):
    path = tmp_path / "c5.hyg"
    path.write_text(C5_MINUS_TEXT)
    argv = [a.format(file=path) for a in argv]
    script = (
        "import json, sys\n"
        "from hyperdense import cli\n"
        f"code = cli.main({argv!r})\n"
        f"print(json.dumps([code, {LOADED}]), file=sys.stderr)\n"
    )
    proc = fresh(script)
    code, modules = json.loads(proc.stderr)
    assert code == 0
    assert json.loads(proc.stdout)["command"] == argv[0]
    assert modules == [f"hyperdense.{m}" for m in loaded]


# The heuristic audits run every restart at once as numpy columns, so they
# load numpy; the deciders still run in pure Python.
@pytest.mark.parametrize(
    "argv, numpy_loaded",
    [
        (["audit", "vertex", "{file}", "--mode", "heuristic", "--restarts", "2"], True),
        (["audit", "triple", "{file}", "--mode", "heuristic", "--restarts", "2"], True),
        (["audit", "profile", "{file}", "--mode", "heuristic", "--restarts", "2"], True),
        (["decide-pi1", "{file}"], False),
    ],
)
def test_cli_heuristic_audit_loads_numpy_and_decider_does_not(tmp_path, argv, numpy_loaded):
    path = tmp_path / "c5.hyg"
    path.write_text(C5_MINUS_TEXT)
    argv = [a.format(file=path) for a in argv]
    script = (
        "import json, sys\n"
        "from hyperdense import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps([code, 'numpy' in sys.modules]), file=sys.stderr)\n"
    )
    proc = fresh(script)
    code, loaded = json.loads(proc.stderr)
    assert code in (0, 1, 3)
    assert json.loads(proc.stdout)["command"] == argv[0]
    assert loaded is numpy_loaded


# Hom counts into hosts of fewer than 27**3 tensor cells, such as T_2, and
# every containment search stay in pure Python, and so does building T_n.
@pytest.mark.parametrize("argv", [
    ["hom-count", "{file}", "{t2}"],
    ["embed", "{file}", "{t2}"],
    ["generate", "ternary", "3", "3"],
])
def test_cli_pattern_maps_and_ternary_host_do_not_load_numpy(tmp_path, argv):
    from hyperdense import build_kary, serialize_hypergraph

    path, t2 = tmp_path / "c5.hyg", tmp_path / "t2.hyg"
    path.write_text(C5_MINUS_TEXT)
    t2.write_text(serialize_hypergraph(build_kary(3, 2)))
    argv = [a.format(file=path, t2=t2) for a in argv]
    script = (
        "import json, sys\n"
        "from hyperdense import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps([code, 'numpy' in sys.modules]), file=sys.stderr)\n"
    )
    proc = fresh(script)
    code, loaded = json.loads(proc.stderr)
    assert code in (0, 1)
    assert proc.stdout
    assert loaded is False


# The staged selection builds its candidate tables in numpy only past
# PYTHON_INDEX_LIMIT indices; below it, and for parsing a reduced
# hypergraph and verifying a selection, it stays in pure Python.
@pytest.mark.parametrize("action, numpy_loaded", [("select", True), ("select", False), ("verify", False)])
def test_reduced_select_loads_numpy_and_verify_does_not(tmp_path, action, numpy_loaded):
    from hyperdense.reduced import PYTHON_INDEX_LIMIT

    m = PYTHON_INDEX_LIMIT + 1 if numpy_loaded else 3
    reduced = tmp_path / "reduced.json"
    reduced.write_text(json.dumps({"m": m, "class_size": {f"{i},{j}": 1 for i, j in combinations(range(m), 2)},
                                   "constituents": {f"{i},{j},{k}": [[0, 0, 0]]
                                                    for i, j, k in combinations(range(m), 3)}}))
    selection = tmp_path / "sel.json"
    selection.write_text(json.dumps({"lambda": [0, 1, 2], "red": {"0,1": 0, "0,2": 0, "1,2": 0},
                                     "blue": {"0,1": 0, "0,2": 0, "1,2": 0},
                                     "green": {"0,1": 0, "0,2": 0, "1,2": 0}}))
    argv = ["reduced", action, str(reduced), "--mu", "1.0", "--f", "3", "--selection", str(selection)]
    script = (
        "import json, sys\n"
        "from hyperdense import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps([code, 'numpy' in sys.modules]), file=sys.stderr)\n"
    )
    proc = fresh(script)
    assert json.loads(proc.stderr) == [0, numpy_loaded]
    assert json.loads(proc.stdout)["command"] == "reduced"


# The mu-density test is decided when the hypergraph is built, so past
# PYTHON_INDEX_LIMIT indices neither is_mu_dense nor a select that it
# refuses (exit 2) loads numpy; a mu-dense select does (above).
def test_mu_density_loads_no_numpy_past_the_index_limit(tmp_path):
    from hyperdense.reduced import PYTHON_INDEX_LIMIT

    m = PYTHON_INDEX_LIMIT + 1
    triples = list(combinations(range(m), 3))
    reduced = tmp_path / "reduced.json"
    # every constituent holds its one class edge but the first, which is empty
    reduced.write_text(json.dumps({"m": m, "class_size": {f"{i},{j}": 1 for i, j in combinations(range(m), 2)},
                                   "constituents": {f"{i},{j},{k}": [[0, 0, 0]] for i, j, k in triples[1:]}}))
    script = (
        "import json, sys\n"
        "from hyperdense import cli, reduced\n"
        f"rh = reduced.parse_reduced_json(open({str(reduced)!r}).read())\n"
        "verdict = reduced.is_mu_dense(rh, 0.0)\n"
        "tested = 'numpy' in sys.modules\n"
        f"code = cli.main(['reduced', 'select', {str(reduced)!r}, '--mu', '1.0'])\n"
        "print(json.dumps([verdict, tested, code, 'numpy' in sys.modules]))\n"
    )
    proc = fresh(script)
    assert json.loads(proc.stdout) == [[True, [0, 1, 2]], False, 2, False]
    assert proc.stderr == "error: input is not 1.0-dense (worst constituent (0, 1, 2))\n"


# The exact vertex and profile audits table their subsets in Python lists up
# to PYTHON_TABLE_LIMIT vertices, and in numpy past it.
@pytest.mark.parametrize("notion", ["vertex", "profile"])
@pytest.mark.parametrize("past_limit", [False, True])
def test_exact_vertex_and_profile_audits_load_numpy_past_the_table_limit(tmp_path, notion, past_limit):
    from hyperdense import Hypergraph, serialize_hypergraph
    from hyperdense.density import PYTHON_TABLE_LIMIT

    n = PYTHON_TABLE_LIMIT + past_limit
    path = tmp_path / "host.hyg"
    path.write_text(serialize_hypergraph(Hypergraph(3, n, tuple(combinations(range(n), 3))[::7])))
    argv = ["audit", notion, str(path), "--d", "0.1", "--eta", "0.01", "--eta-grid", "0.5,1.0"]
    script = (
        "import json, sys\n"
        "from hyperdense import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps([code, 'numpy' in sys.modules]), file=sys.stderr)\n"
    )
    proc = fresh(script)
    code, loaded = json.loads(proc.stderr)
    assert code in (0, 1)
    assert json.loads(proc.stdout)["result"]["stats"]["subsets_examined"] == 1 << n
    assert loaded is past_limit


def test_parse_reduced_json_does_not_load_numpy():
    text = json.dumps({"m": 3, "class_size": {"0,1": 2, "0,2": 2, "1,2": 2}, "constituents": {"0,1,2": [[1, 0, 1]]}})
    script = (
        "import json, sys\n"
        "from hyperdense.reduced import parse_reduced_json\n"
        f"rh = parse_reduced_json({text!r})\n"
        "print(json.dumps([sorted(rh.edges_of((0, 1, 2))), 'numpy' in sys.modules]))\n"
    )
    proc = fresh(script)
    assert json.loads(proc.stdout) == [[[1, 0, 1]], False]


def test_cli_numpy_command_in_fresh_process():
    script = (
        "import json, sys\n"
        "from hyperdense import cli\n"
        "code = cli.main(['verify-fact7', '--resolution', '11'])\n"
        "print(json.dumps([code, 'numpy' in sys.modules]), file=sys.stderr)\n"
    )
    proc = fresh(script)
    assert json.loads(proc.stderr) == [0, True]
    result = json.loads(proc.stdout)["result"]
    assert result["resolution"] == 11 and result["minimum"] >= -1e-9


# --- the export table -------------------------------------------------------------


def test_all_lists_every_export():
    assert sorted(hyperdense.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    assert len(hyperdense.__all__) == 49


def test_each_export_is_its_module_object():
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"hyperdense.{module}")
        for name in names:
            assert getattr(hyperdense, name) is getattr(source, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(hyperdense, "no_such_name")


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from hyperdense import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hyperdense.__all__)
