import json
import os
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import hyperdense
from hyperdense import density, hypergraphs, inequalities, parse_hypergraph, rainbow, reduced
from hyperdense.cli import _emit, build_parser, main

from conftest import C5_MINUS_TEXT
from reduced_oracles import complete_reduced, serialize_reduced_json

K4_TEXT = "3 4 4\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n"
EMPTY10_TEXT = "3 10 0\n"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def loads(text):
    """Parse a report as strict JSON, so that Infinity or NaN fails the test."""
    return json.loads(text, parse_constant=_reject_constant)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_decide_pi1_witness(tmp_path, capsys):
    path = write(tmp_path, "c5.hyg", C5_MINUS_TEXT)
    code, out, _ = run(capsys, "decide-pi1", path)
    assert code == 0
    payload = loads(out)
    assert payload["schema"] == 1
    assert payload["result"]["witness"]["ordering"] == [1, 4, 2, 0, 3]


def test_decide_pi1_none(tmp_path, capsys):
    path = write(tmp_path, "k4.hyg", K4_TEXT)
    code, out, _ = run(capsys, "decide-pi1", path)
    assert code == 1
    assert loads(out)["result"]["witness"] == "none"


def test_decide_pi1_bad_input(tmp_path, capsys):
    path = write(tmp_path, "bad.hyg", "3 3 1\n0 1 9\n")
    code, _, err = run(capsys, "decide-pi1", path)
    assert code == 2
    assert "line 2" in err


def test_decide_pi1_missing_file(capsys):
    code, _, err = run(capsys, "decide-pi1", "/nonexistent/file.hyg")
    assert code == 2


def test_frequent_witness_and_none(tmp_path, capsys):
    edge = write(tmp_path, "edge.hyg", "3 3 1\n0 1 2\n")
    code, out, _ = run(capsys, "frequent", edge)
    assert code == 0
    assert loads(out)["result"]["witness"]["length"] == 1
    k4 = write(tmp_path, "k4.hyg", K4_TEXT)
    code, out, _ = run(capsys, "frequent", k4)
    assert code == 1


def test_generate_ternary(tmp_path, capsys):
    out_path = tmp_path / "t2.hyg"
    code, _, _ = run(capsys, "generate", "ternary", "3", "2", "-o", str(out_path))
    assert code == 0
    host = parse_hypergraph(out_path.read_text())
    assert host.n == 9 and len(host.edges) == 30


def test_generate_hphi_deterministic(capsys):
    code, out1, _ = run(capsys, "generate", "hphi", "12", "--seed", "7")
    assert code == 0
    code, out2, _ = run(capsys, "generate", "hphi", "12", "--seed", "7")
    assert out1 == out2
    code, out3, _ = run(capsys, "generate", "hphi", "12", "--seed", "8")
    assert out3 != out1


def test_generate_hphi_explicit_colouring(tmp_path, capsys):
    colouring = write(tmp_path, "phi.txt", "3 3\n0 1 3\n0 2 2\n1 2 1\n")
    code, out, _ = run(capsys, "generate", "hphi", "3", "--colouring", colouring)
    assert code == 0
    host = parse_hypergraph(out)
    assert host.edges == ((0, 1, 2),)


def test_generate_hphi_rejects_a_face_with_a_repeated_vertex(tmp_path, capsys):
    colouring = write(tmp_path, "phi.txt", "3 3\n0 1 1\n0 2 2\n1 1 3\n")
    code, out, err = run(capsys, "generate", "hphi", "3", "--colouring", colouring)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: line 4: repeated vertex within a subset"]


@pytest.mark.parametrize("k", ["1", "0", "-1"])
def test_generate_hphi_rejects_uniformity_below_two(capsys, k):
    code, out, err = run(capsys, "generate", "hphi", "3", "--k", k)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: need uniformity k >= 2, got k={k}"]


@pytest.mark.parametrize("argv, line", [
    (["393"], ""),
    (["44", "--k", "6"], ""),
    (["1000000000", "--colouring", "huge.txt"], "line 1: "),
])
def test_generate_hphi_rejects_sizes_past_the_limits(tmp_path, capsys, argv, line):
    # the colouring file is a header alone: over the limit, nothing is read or built
    write(tmp_path, "huge.txt", "3 1000000000\n")
    argv = [str(tmp_path / a) if a == "huge.txt" else a for a in argv]
    code, out, err = run(capsys, "generate", "hphi", *argv)
    n, k = argv[0], argv[2] if argv[1:2] == ["--k"] else "3"
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: {line}pattern hosts are limited to n <= {rainbow.PAIR_COLOURING_LIMIT}, "
        f"C(n, k-1) <= {rainbow.PAIR_COLOURING_LIMIT} colours and C(n, k) <= {rainbow.PATTERN_HOST_LIMIT} "
        f"candidate edges, got n={n}, k={k}"
    ]


def test_generate_hphi_k2(capsys):
    code, out, _ = run(capsys, "generate", "hphi", "6", "--k", "2", "--seed", "3")
    assert code == 0
    host = parse_hypergraph(out)
    assert host.k == 2 and host.n == 6


def test_generate_hphi_k4_flags_the_generalization(tmp_path, capsys):
    colouring = write(tmp_path, "phi4.txt", "4 4\n1 2 3 1\n0 2 3 2\n0 1 3 3\n0 1 2 4\n")
    code, out, _ = run(capsys, "generate", "hphi", "4", "--k", "4", "--colouring", colouring)
    assert code == 0
    assert "generalisation" in out
    host = parse_hypergraph(out)
    assert host.k == 4 and host.edges == ((0, 1, 2, 3),)


def test_embed_uniformity_mismatch_is_input_error(tmp_path, capsys):
    edge3 = write(tmp_path, "e3.hyg", "3 3 1\n0 1 2\n")
    edge4 = write(tmp_path, "e4.hyg", "4 4 1\n0 1 2 3\n")
    code, _, err = run(capsys, "embed", edge3, edge4)
    assert code == 2
    assert "mismatch" in err


def test_audit_vertex_violated(tmp_path, capsys):
    path = write(tmp_path, "empty.hyg", EMPTY10_TEXT)
    code, out, _ = run(capsys, "audit", "vertex", path, "--d", "0.5", "--eta", "0.01")
    assert code == 1
    result = loads(out)["result"]
    assert result["verdict"] == "violated"
    assert result["certificate"]["U"] == list(range(10))


def test_audit_vertex_satisfied(tmp_path, capsys):
    complete = "3 6 20\n" + "\n".join(
        " ".join(map(str, e)) for e in combinations(range(6), 3)
    ) + "\n"
    path = write(tmp_path, "k6.hyg", complete)
    code, out, _ = run(capsys, "audit", "vertex", path, "--d", "1.0", "--eta", "0.01")
    assert code == 0
    assert loads(out)["result"]["verdict"] == "satisfied"


def test_audit_heuristic_unresolved_exit_code(tmp_path, capsys):
    path = write(tmp_path, "empty.hyg", EMPTY10_TEXT)
    code, out, _ = run(
        capsys, "audit", "vertex", path, "--d", "0.0", "--eta", "0.5",
        "--mode", "heuristic", "--restarts", "2", "--budget", "10",
    )
    assert code == 3
    assert loads(out)["result"]["verdict"] == "unresolved"


# the smallest 5-graph whose 5-set count reaches 2**53, on fewer vertices than the limit
K5_SET_LIMIT_N = next(n for n in range(5, density.HEURISTIC_HOST_LIMIT) if comb(n, 5) >= 1 << 53)


@pytest.mark.parametrize("notion, k, n", [
    ("vertex", 3, density.HEURISTIC_HOST_LIMIT + 1),
    ("triple", 3, density.HEURISTIC_HOST_LIMIT + 1),
    ("profile", 3, density.HEURISTIC_HOST_LIMIT + 1),
    ("vertex", 5, K5_SET_LIMIT_N),
    ("profile", 5, K5_SET_LIMIT_N),
])
def test_audit_heuristic_rejects_hosts_past_the_limit(tmp_path, capsys, notion, k, n):
    # a header alone: over the limit, nothing is allocated
    path = write(tmp_path, "huge.hyg", f"{k} {n} 0\n")
    code, out, err = run(capsys, "audit", notion, path, "--mode", "heuristic")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: heuristic mode limited to n <= {density.HEURISTIC_HOST_LIMIT} and C(n, k) < 2**53, "
        f"got n = {n}, k = {k}"
    ]


@pytest.mark.parametrize("notion, k, n, exit_code", [
    ("vertex", 3, density.HEURISTIC_HOST_LIMIT, 1),
    ("triple", 3, density.HEURISTIC_HOST_LIMIT, 1),
    ("profile", 3, density.HEURISTIC_HOST_LIMIT, 0),
    ("vertex", 5, K5_SET_LIMIT_N - 1, 3),
])
def test_audit_heuristic_takes_hosts_at_the_limit(tmp_path, capsys, notion, k, n, exit_code):
    path = write(tmp_path, "edge.hyg", f"{k} {n} 0\n")
    code, out, _ = run(capsys, "audit", notion, path, "--mode", "heuristic", "--eta-grid", "0.5",
                       "--restarts", "1", "--budget", "1")
    assert code == exit_code
    assert loads(out)["command"] == "audit"


def test_audit_profile(tmp_path, capsys):
    t2_text = None
    code, out, _ = run(capsys, "generate", "ternary", "3", "2")
    t2_text = out
    path = write(tmp_path, "t2.hyg", t2_text)
    code, out, _ = run(capsys, "audit", "profile", path, "--eta-grid", "1.0")
    assert code == 0
    entry = loads(out)["result"]["entries"][0]
    assert abs(entry["density"] - 30 / 84) < 1e-12


@pytest.mark.parametrize("flag, message", [("--restarts", "restarts must be >= 1"), ("--budget", "budget must be >= 1")])
def test_audit_profile_heuristic_rejects_empty_search(tmp_path, capsys, flag, message):
    path = write(tmp_path, "k4.hyg", K4_TEXT)
    code, out, err = run(
        capsys, "audit", "profile", path, "--mode", "heuristic", flag, "0", "--eta-grid", "0.5",
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("notion, mode, eta", [
    ("vertex", "exact", "nan"),
    ("vertex", "heuristic", "inf"),
    ("triple", "heuristic", "nan"),
    ("triple", "exact", "inf"),
])
def test_audit_rejects_non_finite_eta(tmp_path, capsys, notion, mode, eta):
    path = write(tmp_path, "k4.hyg", K4_TEXT)
    code, out, err = run(capsys, "audit", notion, path, "--eta", eta, "--mode", mode, "--restarts", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: eta must lie in (0, 1], got {float(eta)}\n"


@pytest.mark.parametrize("notion", ["vertex", "triple"])
@pytest.mark.parametrize("mode", ["exact", "heuristic"])
@pytest.mark.parametrize("eta", ["1.5", "1e308"])
def test_audit_rejects_eta_above_one(tmp_path, capsys, notion, mode, eta):
    # at 1e308, eta * n**k overflows a float to inf
    path = write(tmp_path, "edge4.hyg", "3 4 1\n0 1 2\n")
    code, out, err = run(capsys, "audit", notion, path, "--d", "0.5", "--eta", eta, "--mode", mode)
    assert code == 2
    assert out == ""
    assert err == f"error: eta must lie in (0, 1], got {float(eta)}\n"


def test_reports_never_print_non_finite_numbers(capsys):
    with pytest.raises(ValueError):
        _emit({"slack": float("inf")}, None)
    assert capsys.readouterr().out == ""


def test_sweep_small(capsys):
    code, out, _ = run(capsys, "sweep", "3")
    assert code == 0
    result = loads(out)["result"]
    assert result["patterns"] == 2
    assert result["consistent"] is True


def test_sweep_f4_classes(capsys):
    code, out, _ = run(capsys, "sweep", "4")
    result = loads(out)["result"]
    assert result["patterns"] == 16
    assert result["classes"]["frequent_and_orderable"] == 11
    assert result["classes"]["neither"] == 5
    assert result["classes"]["frequent_not_orderable"] == 0


@pytest.mark.parametrize("f", [-1, 6])
def test_sweep_rejects_out_of_range(capsys, f):
    code, out, err = run(capsys, "sweep", "--", str(f))
    assert code == 2 and out == ""
    assert err == f"error: sweep needs 0 <= f <= 5, got f={f}\n"


def test_reduced_select_and_verify(tmp_path, capsys):
    rh = complete_reduced(5, 2)
    path = write(tmp_path, "reduced.json", serialize_reduced_json(rh))
    code, out, _ = run(capsys, "reduced", "select", path, "--mu", "1.0", "--f", "3")
    assert code == 0
    selection = loads(out)["result"]["selection"]
    sel_path = write(tmp_path, "sel.json", json.dumps(selection))
    code, out, _ = run(capsys, "reduced", "verify", path, "--selection", sel_path)
    assert code == 0
    assert loads(out)["result"]["valid"] is True
    assert loads(out)["config"] == {"action": "verify", "file": path, "mu": 0.5, "f": 3, "selection": sel_path}


def test_reduced_select_rejects_sparse(tmp_path, capsys):
    rh = complete_reduced(4, 2)
    data = loads(serialize_reduced_json(rh))
    del data["constituents"]["0,1,2"]
    path = write(tmp_path, "sparse.json", json.dumps(data))
    code, _, err = run(capsys, "reduced", "select", path, "--mu", "0.5", "--f", "3")
    assert code == 2
    assert "dense" in err


COMPLETE_5_2 = serialize_reduced_json(complete_reduced(5, 2))


@pytest.mark.parametrize("text", [
    "[1, 2]",
    '{"m": 2, "class_size": [1, 2]}',
    # int() would read each of these as a valid integer of the same instance
    pytest.param(COMPLETE_5_2.replace('"m": 5', '"m": 5.9'), id="m-float"),
    pytest.param(COMPLETE_5_2.replace('"0,1": 2', '"0,1": 2.7'), id="size-float"),
    pytest.param(COMPLETE_5_2.replace('"0,1": 2', '"0,1": "2"'), id="size-string"),
    pytest.param(COMPLETE_5_2.replace("[\n        0,", "[\n        false,", 1), id="vertex-bool"),
    # class and constituent keys must name distinct indices in [0, m), each set once
    pytest.param(COMPLETE_5_2.replace('"0,1": 2', '"0,1": 2, "0,9": 2'), id="key-out-of-range"),
    pytest.param(COMPLETE_5_2.replace('"0,1": 2', '"0,1": 2, "3,1": 2'), id="key-repeated-unsorted"),
    pytest.param(COMPLETE_5_2.replace('"0,1": 2', '"0,1": 2, "0,0": 2'), id="key-not-distinct"),
    pytest.param(COMPLETE_5_2.replace('"0,1,2": [', '"0,1,9": [], "0,1,2": ['), id="triple-key-out-of-range"),
    pytest.param(COMPLETE_5_2.replace('"0,1,2": [', '"2,1,0": [], "0,1,2": ['), id="triple-key-repeated"),
    pytest.param(COMPLETE_5_2.replace('"0,1": 2', '" 0, 1": 2'), id="key-spaces"),
    pytest.param(COMPLETE_5_2.replace('"0,1": 2', '"0,01": 2'), id="key-leading-zero"),
    pytest.param(COMPLETE_5_2.replace('"0,1": 2', '"0,1": 2, "0,1_0": 2'), id="key-underscore"),
])
def test_reduced_select_malformed_json_is_input_error(tmp_path, capsys, text):
    path = write(tmp_path, "bad.json", text)
    code, out, err = run(capsys, "reduced", "select", path, "--mu", "0.5", "--f", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["[]", '{"lambda": 3, "red": {}, "blue": {}, "green": {}}'])
def test_reduced_verify_malformed_selection_is_input_error(tmp_path, capsys, text):
    path = write(tmp_path, "reduced.json", serialize_reduced_json(complete_reduced(4, 2)))
    sel_path = write(tmp_path, "sel.json", text)
    code, _, err = run(capsys, "reduced", "verify", path, "--selection", sel_path)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("colour,edit", [
    pytest.param("red", lambda keys: {**keys, "0,9": 1}, id="red-position-out-of-range"),
    pytest.param("blue", lambda keys: {**keys, "1,0": 7}, id="blue-reversed-pair"),
    pytest.param("green", lambda keys: {**keys, "1,1": 0}, id="green-not-a-pair"),
    pytest.param("green", lambda keys: {k: v for k, v in keys.items() if k != "0,2"}, id="green-missing-pair"),
])
def test_reduced_verify_rejects_colour_keys_other_than_the_pairs(tmp_path, capsys, colour, edit):
    # verify_core reads only the keys it needs, so the parser must reject the rest
    path = write(tmp_path, "reduced.json", serialize_reduced_json(complete_reduced(5, 2)))
    code, out, _ = run(capsys, "reduced", "select", path, "--mu", "1.0", "--f", "3")
    assert code == 0
    selection = loads(out)["result"]["selection"]
    selection[colour] = edit(selection[colour])
    sel_path = write(tmp_path, "sel.json", json.dumps(selection))
    code, out, err = run(capsys, "reduced", "verify", path, "--selection", sel_path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {colour} ") and err.count("\n") == 1


@pytest.mark.parametrize("data, line", [
    ({"m": reduced.INDEX_LIMIT + 1, "class_size": {}},
     f"reduced hypergraphs are limited to m <= {reduced.INDEX_LIMIT}, got m={reduced.INDEX_LIMIT + 1}"),
    ({"m": 2, "class_size": {"0,1": reduced.CLASS_SIZE_LIMIT + 1}},
     f"class sizes are limited to <= {reduced.CLASS_SIZE_LIMIT}, got class_size['0,1'] = {reduced.CLASS_SIZE_LIMIT + 1}"),
])
def test_reduced_rejects_sizes_past_the_limits(tmp_path, capsys, data, line):
    path = write(tmp_path, "huge.json", json.dumps(data))
    for argv in (["select", path], ["verify", path, "--selection", path]):
        code, out, err = run(capsys, "reduced", *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {line}"]


def test_reduced_takes_sizes_at_the_limits(tmp_path, capsys):
    path = write(tmp_path, "wide.json", json.dumps({"m": reduced.INDEX_LIMIT, "class_size": {}}))
    code, _, err = run(capsys, "reduced", "select", path)
    assert code == 2 and err == "error: class (0, 1) missing or empty\n"
    path = write(tmp_path, "tall.json", json.dumps({"m": 2, "class_size": {"0,1": reduced.CLASS_SIZE_LIMIT}}))
    code, out, _ = run(capsys, "reduced", "select", path, "--f", "3")
    assert code == 1 and loads(out)["result"] == {"selection": "none"}


def test_reduced_select_takes_density_exactly_mu(tmp_path, capsys):
    # 7 of 1 x 5 x 5 class edges: density 0.28 exactly
    edges = [[0, q, r] for q in range(5) for r in range(5)][:7]
    data = {"m": 3, "class_size": {"0,1": 1, "0,2": 5, "1,2": 5}, "constituents": {"0,1,2": edges}}
    path = write(tmp_path, "tie.json", json.dumps(data))
    code, out, _ = run(capsys, "reduced", "select", path, "--mu", "0.28", "--f", "1")
    assert code == 0
    code, below, _ = run(capsys, "reduced", "select", path, "--mu", "0.2799", "--f", "1")
    assert code == 0
    assert loads(out)["result"] == loads(below)["result"]


def test_reduced_select_none_reports_the_same_config(tmp_path, capsys):
    path = write(tmp_path, "reduced.json", serialize_reduced_json(complete_reduced(3, 1)))
    code, found, _ = run(capsys, "reduced", "select", path, "--mu", "1.0", "--f", "3")
    assert code == 0
    code, none, _ = run(capsys, "reduced", "select", path, "--mu", "1.0", "--f", "4")
    assert code == 1 and loads(none)["result"] == {"selection": "none"}
    assert loads(none)["config"] == {**loads(found)["config"], "f": 4}
    assert list(loads(none)["config"]) == list(loads(found)["config"])


def test_verify_fact7(capsys):
    code, out, _ = run(capsys, "verify-fact7", "--resolution", "51")
    assert code == 0
    result = loads(out)["result"]
    assert result["minimum"] >= -1e-9
    assert abs(result["gap_at_110"]) < 1e-12


def test_verify_fact7_rejects_resolution_above_limit(capsys):
    limit = inequalities.FACT7_RESOLUTION_LIMIT
    code, out, err = run(capsys, "verify-fact7", "--resolution", str(limit + 1))
    assert code == 2 and out == ""
    assert err == f"error: resolution is limited to <= {limit}\n"


def test_audit_tn(capsys):
    code, out, _ = run(capsys, "audit-tn", "--level", "2", "--mode", "exact")
    assert code == 0
    assert loads(out)["result"]["violations"] == []


@pytest.mark.parametrize("argv, message", [
    (["--level", "4", "--mode", "sampled", "--samples", "10"], "use exact mode"),
    (["--level", "3", "--mode", "sampled", "--samples", "0"], "samples must be >= 1"),
    (["--level", "3", "--mode", "sampled", "--samples", "-5"], "samples must be >= 1"),
    (["--level", "6", "--mode", "exact"], "limited to level <= 5"),
], ids=["sampled-level-4", "zero-samples", "negative-samples", "exact-level-6"])
def test_audit_tn_rejects_out_of_range(capsys, argv, message):
    code, out, err = run(capsys, "audit-tn", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_optimality(capsys):
    code, out, _ = run(capsys, "optimality", "--r", "1", "--n", "3")
    result = loads(out)["result"]
    assert result["edges"] == 60
    assert abs(result["eta"] - 2 / 3) < 1e-12


@pytest.mark.parametrize("r", ["0", "216"])
def test_optimality_rejects_depth_beyond_float_range(capsys, r):
    code, out, err = run(capsys, "optimality", "--r", r, "--n", "216")
    assert code == 2 and out == ""
    assert err == "error: need 0 <= r <= n <= 215\n"


def test_supersat(tmp_path, capsys):
    path = write(tmp_path, "edge.hyg", "3 3 1\n0 1 2\n")
    code, out, _ = run(capsys, "supersat", "--file", path, "--nmax", "2")
    assert code == 0
    entries = loads(out)["result"]["entries"]
    assert entries[0]["hom"] == 6 and entries[1]["hom"] == 180


@pytest.mark.parametrize("nmax", ["0", "65"])
def test_supersat_rejects_depth_outside_range(tmp_path, capsys, nmax):
    path = write(tmp_path, "edge.hyg", "3 3 1\n0 1 2\n")
    code, out, err = run(capsys, "supersat", "--file", path, "--nmax", nmax)
    assert code == 2 and out == ""
    assert err == "error: n_max must lie in 1..64\n"


def test_supersat_rejects_non_embeddable(tmp_path, capsys):
    path = write(tmp_path, "k4.hyg", K4_TEXT)
    code, _, err = run(capsys, "supersat", "--file", path, "--nmax", "2")
    assert code == 2


def test_hom_count_and_embed(tmp_path, capsys):
    edge = write(tmp_path, "edge.hyg", "3 3 1\n0 1 2\n")
    c5 = write(tmp_path, "c5.hyg", C5_MINUS_TEXT)
    code, out, _ = run(capsys, "hom-count", edge, c5)
    assert code == 0
    assert loads(out)["result"]["count"] == 24
    code, out, _ = run(capsys, "embed", edge, c5)
    assert code == 0
    code, out, _ = run(capsys, "embed", c5, edge)
    assert code == 1


@pytest.mark.parametrize("command", ["hom-count", "embed"])
def test_pattern_maps_reject_hosts_past_the_limit(tmp_path, capsys, command):
    # a header alone: over the limit, nothing is allocated
    edge = write(tmp_path, "edge.hyg", "3 3 1\n0 1 2\n")
    n = hypergraphs.HOST_VERTEX_LIMIT + 1
    huge = write(tmp_path, "huge.hyg", f"3 {n} 0\n")
    code, out, err = run(capsys, command, edge, huge)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: pattern-map searches are limited to hosts of n <= {hypergraphs.HOST_VERTEX_LIMIT} vertices, got n={n}"
    ]


@pytest.mark.parametrize("command, result", [
    ("hom-count", {"count": hypergraphs.HOST_VERTEX_LIMIT}),
    ("embed", {"witness": {"mapping": {"0": 0}}}),
])
def test_pattern_maps_take_hosts_at_the_limit(tmp_path, capsys, command, result):
    vertex = write(tmp_path, "vertex.hyg", "3 1 0\n")
    host = write(tmp_path, "host.hyg", f"3 {hypergraphs.HOST_VERTEX_LIMIT} 0\n")
    code, out, _ = run(capsys, command, vertex, host)
    assert code == 0
    assert loads(out)["result"] == result


def tight_path_text(n):
    return f"3 {n} {n - 2}\n" + "".join(f"{i} {i + 1} {i + 2}\n" for i in range(n - 2))


PATTERN_COMMANDS = [
    ["decide-pi1", "PATTERN"],
    ["frequent", "PATTERN"],
    ["supersat", "--file", "PATTERN", "--nmax", "1"],
    ["hom-count", "PATTERN", "HOST"],
    ["embed", "PATTERN", "HOST"],
]


@pytest.mark.parametrize("template", PATTERN_COMMANDS, ids=[argv[0] for argv in PATTERN_COMMANDS])
@pytest.mark.parametrize("text", [
    f"3 {hypergraphs.PATTERN_VERTEX_LIMIT + 1} 0\n",  # a header alone: nothing is allocated
    "3 1000000000 0\n",
    tight_path_text(2 * hypergraphs.PATTERN_VERTEX_LIMIT),  # a RecursionError (exit 4) without the limit
], ids=["limit+1", "1e9", "path-1024"])
def test_pattern_searches_reject_patterns_past_the_limit(tmp_path, capsys, template, text):
    files = {"PATTERN": write(tmp_path, "pattern.hyg", text), "HOST": write(tmp_path, "edge.hyg", "3 3 1\n0 1 2\n")}
    code, out, err = run(capsys, *(files.get(arg, arg) for arg in template))
    assert code == 2
    assert out == ""
    n = int(text.split()[1])
    assert err.splitlines() == [
        f"error: pattern searches are limited to patterns of n <= {hypergraphs.PATTERN_VERTEX_LIMIT} vertices, got n={n}"
    ]


@pytest.mark.parametrize("template", PATTERN_COMMANDS, ids=[argv[0] for argv in PATTERN_COMMANDS])
def test_pattern_searches_take_a_path_at_the_limit(tmp_path, capsys, template):
    # each search recurses once per pattern vertex; embed finds the path in itself
    path = write(tmp_path, "path.hyg", tight_path_text(hypergraphs.PATTERN_VERTEX_LIMIT))
    host = path if template[0] == "embed" else write(tmp_path, "edge.hyg", "3 3 1\n0 1 2\n")
    code, out, _ = run(capsys, *({"PATTERN": path, "HOST": host}.get(arg, arg) for arg in template))
    assert code == 0
    assert loads(out)["command"] == template[0]


def test_embed_none_reports_the_same_config(tmp_path, capsys):
    edge = write(tmp_path, "edge.hyg", "3 3 1\n0 1 2\n")
    c5 = write(tmp_path, "c5.hyg", C5_MINUS_TEXT)
    code, found, _ = run(capsys, "embed", edge, c5)
    assert code == 0
    code, none, _ = run(capsys, "embed", c5, edge)
    assert code == 1 and loads(none)["result"] == {"witness": "none"}
    assert loads(none)["config"] == {**loads(found)["config"], "pattern": c5, "host": edge}
    assert list(loads(none)["config"]) == list(loads(found)["config"])


def test_reports_embed_config_and_seed(tmp_path, capsys):
    path = write(tmp_path, "empty.hyg", EMPTY10_TEXT)
    code, out, _ = run(capsys, "audit", "vertex", path, "--mode", "heuristic", "--budget", "3",
                       "--restarts", "2", "--seed", "99")
    assert code == 1
    # every argument in parser order, defaults included
    assert loads(out)["config"] == {
        "notion": "vertex", "file": path, "d": 0.5, "eta": 0.01, "mode": "heuristic",
        "budget": 3, "restarts": 2, "seed": 99, "eta_grid": None,
    }
    assert list(loads(out)["config"]) == ["notion", "file", "d", "eta", "mode", "budget", "restarts", "seed", "eta_grid"]


def test_sampled_audit_tn_report_carries_its_samples(capsys):
    code, out, _ = run(capsys, "audit-tn", "--level", "2", "--mode", "sampled", "--samples", "7", "--seed", "4")
    assert code == 0
    assert loads(out)["config"] == {"level": 2, "mode": "sampled", "samples": 7, "seed": 4}


# one run of each of the 11 subcommands that print a JSON report; C5, EDGE
# and REDUCED stand for input files
REPORT_ARGV = [
    ["decide-pi1", "C5"],
    ["frequent", "EDGE"],
    ["audit", "profile", "C5", "--eta-grid", "0.5"],
    ["sweep", "3"],
    ["reduced", "select", "REDUCED", "--mu", "1.0"],
    ["verify-fact7", "--resolution", "11"],
    ["audit-tn", "--level", "1"],
    ["optimality", "--r", "1", "--n", "2"],
    ["supersat", "--file", "EDGE", "--nmax", "1"],
    ["hom-count", "EDGE", "C5"],
    ["embed", "EDGE", "C5"],
]


@pytest.mark.parametrize("template", REPORT_ARGV, ids=[argv[0] for argv in REPORT_ARGV])
def test_report_config_is_the_parsed_arguments(tmp_path, capsys, template):
    files = {
        "C5": write(tmp_path, "c5.hyg", C5_MINUS_TEXT),
        "EDGE": write(tmp_path, "edge.hyg", "3 3 1\n0 1 2\n"),
        "REDUCED": write(tmp_path, "reduced.json", serialize_reduced_json(complete_reduced(3, 1))),
    }
    argv = [files.get(arg, arg) for arg in template]
    code, out, _ = run(capsys, *argv)
    assert code in (0, 1)
    parsed = vars(build_parser().parse_args(argv))
    expected = {key: value for key, value in parsed.items() if key not in ("func", "command", "output")}
    payload = loads(out)
    assert payload["command"] == argv[0]
    assert payload["config"] == expected
    assert list(payload["config"]) == list(expected)


@pytest.mark.parametrize("argv", [
    ["--threads", "4", "decide-pi1", "F"],
    ["decide-pi1", "F", "--seed", "1"],
])
def test_removed_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def test_runs_are_deterministic(tmp_path, capsys):
    path = write(tmp_path, "empty.hyg", EMPTY10_TEXT)
    args = ("audit", "vertex", path, "--d", "0.9", "--eta", "0.001",
            "--mode", "heuristic", "--seed", "5", "--restarts", "4")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


# --- internal faults exit 4, never 1 ("negative") -----------------------------


def test_failed_self_check_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(rainbow, "verify_rainbow_colouring", lambda pattern, witness: False)
    path = write(tmp_path, "c5.hyg", C5_MINUS_TEXT)
    code, out, err = run(capsys, "decide-pi1", path)
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_internal_key_error_exits_4(tmp_path, capsys, monkeypatch):
    # only ValueError and OSError mean bad input; a KeyError inside a kernel
    # is a fault of the program
    def lookup_fails(pattern):
        raise KeyError((0, 1))

    monkeypatch.setattr(rainbow, "find_rainbow_ordering", lookup_fails)
    path = write(tmp_path, "c5.hyg", C5_MINUS_TEXT)
    assert run(capsys, "decide-pi1", path) == (4, "", "error: internal fault: KeyError: (0, 1)\n")


def test_failed_self_check_exits_4_under_optimize(tmp_path):
    path = write(tmp_path, "c5.hyg", C5_MINUS_TEXT)
    script = (
        "import sys\n"
        "from hyperdense import cli, rainbow\n"
        "assert False, 'python -O did not strip asserts'\n"
        "rainbow.verify_rainbow_colouring = lambda pattern, witness: False\n"
        f"sys.exit(cli.main(['decide-pi1', {path!r}]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hyperdense.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_profile_certificate_that_does_not_reverify_exits_4_under_optimize(tmp_path):
    # the profile re-check is an explicit check too: a minimiser pick that
    # returns the one edge's 3 vertices, density 1 where 0 is least
    path = write(tmp_path, "one-edge.hyg", "3 6 1\n0 1 2\n")
    script = (
        "import sys\n"
        "from hyperdense import cli, density\n"
        "assert False, 'python -O did not strip asserts'\n"
        "minima = density._size_minima\n"
        "density._size_minima = lambda h: (*minima(h)[:2], lambda s: (1 << s) - 1)\n"
        f"sys.exit(cli.main(['audit', 'profile', {path!r}, '--eta-grid', '0.5']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hyperdense.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ("error: internal fault: RuntimeError: profile certificate for eta 0.5 re-verifies "
                           "at 1.0 on 3 vertices, not 0.0 on at least 3\n")


def test_reduced_floor_breach_exits_4_under_optimize(tmp_path):
    # the stage floor is an explicit check: it holds under python -O too,
    # here on the numpy tables that inputs past PYTHON_INDEX_LIMIT take
    path = write(tmp_path, "reduced.json", serialize_reduced_json(complete_reduced(5, 2)))
    script = (
        "import sys\n"
        "from hyperdense import cli, reduced\n"
        "assert False, 'python -O did not strip asserts'\n"
        "reduced.PYTHON_INDEX_LIMIT = 4\n"
        "table = reduced._stage_table\n"
        "reduced._stage_table = lambda *args: (table(*args)[0], table(*args)[1] & False)\n"
        f"sys.exit(cli.main(['reduced', 'select', {path!r}, '--mu', '1.0', '--f', '3']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hyperdense.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: internal fault: RuntimeError: red candidate set has 0 elements, below 1.0\n"


def test_reduced_floor_breach_in_python_exits_4_under_optimize(tmp_path):
    # the same explicit check on the candidate sets built triple by triple
    path = write(tmp_path, "reduced.json", serialize_reduced_json(complete_reduced(5, 2)))
    script = (
        "import sys\n"
        "from hyperdense import cli, reduced\n"
        "assert False, 'python -O did not strip asserts'\n"
        "sets = reduced._stage_candidates_py\n"
        "reduced._stage_candidates_py = lambda *args: [frozenset() for _ in sets(*args)]\n"
        f"sys.exit(cli.main(['reduced', 'select', {path!r}, '--mu', '1.0', '--f', '3']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hyperdense.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: internal fault: RuntimeError: red candidate set has 0 elements, below 1.0\n"
