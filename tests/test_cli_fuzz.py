"""Fuzz of the command line: every subcommand, run in-process through
``cli.main`` on small malformed HYG, colouring, reduced-hypergraph and
selection files, drawn argument values, and headers past the size limits.

Whatever it draws, a run ends in a verdict (exit 0, 1 or 3) with a report
on stdout and nothing on stderr, or in an input error (exit 2) with one
``error:`` line on stderr and nothing on stdout; argparse's own usage
errors print the usage first, so they take two lines or more.  Exit 4,
an internal fault, never occurs.

Numeric options are drawn from fixed boundary values (in range, out of
range, non-finite and malformed), and sizes are small except for the
over-limit headers, so each run takes milliseconds.  `--d` and `--eta`
are not yet drawn as arbitrary decimals: at ties such as d = eta = 0.1,
an exact triple audit of the empty 6-vertex host still exits 4, because
its float slack disagrees with the re-verification (ROADMAP item 1).
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperdense import cli, hypergraphs, parse_hypergraph, rainbow, reduced

FUZZ_SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

OVER_LIMIT_N = [hypergraphs.PATTERN_VERTEX_LIMIT + 1, hypergraphs.HOST_VERTEX_LIMIT + 1, 10**9]
JUNK_LINES = st.sampled_from(["", "# note", "x", "0 0 0", "-1 0 1", "1.5 2", "0 1 2 3 4", "9 9"])
JUNK_FILES = st.sampled_from(["", "{", "[]", "null", "3 3", "a b c", "3 -1 0"])


def mostly(valid, invalid):
    """Values three quarters in range, one quarter out of range, non-finite or malformed."""
    return st.one_of(valid, valid, valid, st.sampled_from(invalid))


INTS = mostly(st.integers(0, 5).map(str), ["-1", "-2", "x", "", "1.5"])
REALS = mostly(st.sampled_from(["0", "0.5", "1"]), ["-0.5", "1.5", "nan", "inf", "x", "", "1e308"])


@st.composite
def spoiled(draw, lines):
    """The lines with up to two junk lines inserted or lines dropped."""
    lines = list(lines)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(lines)))
        if draw(st.booleans()):
            lines.insert(at, draw(JUNK_LINES))
        elif lines:
            del lines[min(at, len(lines) - 1)]
    return lines


@st.composite
def hyg_text(draw):
    k = draw(st.sampled_from([3, 3, 3, 4, 2, 1]))
    n = draw(st.sampled_from([*range(7, -2, -1), *OVER_LIMIT_N]))
    pool = list(combinations(range(min(n, 7)), k)) if n >= 0 else []
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=6)) if pool else []
    m = draw(st.sampled_from([len(edges)] * 4 + [len(edges) + 1, -1]))
    lines = draw(spoiled([" ".join(map(str, e)) for e in edges]))
    return "\n".join([f"{k} {n} {m}", *lines]) + "\n"


@st.composite
def colouring_text(draw):
    k = draw(st.sampled_from([3, 3, 3, 4, 2, 1]))
    n = draw(st.sampled_from([*range(6, -2, -1), rainbow.PAIR_COLOURING_LIMIT + 1, 10**9]))
    lines = [
        " ".join(map(str, (*face, draw(st.integers(0, k + 1)))))
        for face in (combinations(range(n), k - 1) if n <= 6 else ())
    ]
    return "\n".join([f"{k} {n}", *draw(spoiled(lines))]) + "\n"


@st.composite
def reduced_text(draw):
    m = draw(st.sampled_from([3, 4, 5, 2, 1, 0, -1, reduced.INDEX_LIMIT + 1]))
    size = draw(st.sampled_from([1, 2, 0, reduced.CLASS_SIZE_LIMIT + 1]))
    indices = range(min(max(m, 0), 5))
    rows = [(p, q, r) for p in range(2) for q in range(2) for r in range(2)]
    data = {
        "m": m,
        "class_size": {f"{i},{j}": size for i, j in combinations(indices, 2)},
        "constituents": {
            f"{i},{j},{k}": draw(st.lists(st.sampled_from(rows), unique=True, min_size=1))
            for i, j, k in combinations(indices, 3)
        },
    }
    spoil = draw(st.sampled_from(["none", "m", "key", "size", "row", "drop"]))
    junk = draw(st.sampled_from([None, "3", 1.5, True, -1, [0, 0], [9, 9, 9], "x"]))
    if spoil == "m":
        data["m"] = junk
    elif spoil == "key":
        data[draw(st.sampled_from(["class_size", "constituents"]))][draw(st.sampled_from(["0,9", "1,0", " 0,1", "a"]))] = 1
    elif spoil == "size" and data["class_size"]:
        data["class_size"][min(data["class_size"])] = junk
    elif spoil == "row" and data["constituents"]:
        data["constituents"][min(data["constituents"])].append(junk)
    elif spoil == "drop":
        del data[draw(st.sampled_from(sorted(data)))]
    return json.dumps(data)


COLOURS = st.dictionaries(st.sampled_from(["0,1", "0,2", "1,2", "1,0", "0,9", "x"]), st.integers(-1, 3), max_size=3)
SELECTION_TEXT = st.one_of(
    st.builds(lambda lam, red, blue, green: json.dumps({"lambda": lam, "red": red, "blue": blue, "green": green}),
              st.lists(st.integers(-1, 5), max_size=4), COLOURS, COLOURS, COLOURS),
    JUNK_FILES,
)


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def draw_argv(draw, command, workdir):
    """A command line for one subcommand.  Each input file it names is
    drawn and written to workdir, or is a path that does not exist."""
    texts = {"hyg": hyg_text(), "colouring": colouring_text(), "reduced": reduced_text(), "selection": SELECTION_TEXT}
    drawn = []

    def pick(kind):
        # one file in eight is missing, and one in eight of the rest junk
        if not draw(st.sampled_from([True] * 7 + [False])):
            return str(workdir / "missing.txt")
        path = workdir / f"input{len(drawn)}.txt"
        path.write_text(draw(texts[kind] if draw(st.sampled_from([True] * 7 + [False])) else JUNK_FILES))
        drawn.append(path)
        return str(path)

    def options(spec):
        """Each option of spec, drawn or left out; its value is drawn from a
        strategy, or is a file of the input kind a string names."""
        argv = []
        for name, values in spec.items():
            if draw(st.booleans()):
                argv += [name, pick(values) if isinstance(values, str) else draw(values)]
        return argv

    if command in ("decide-pi1", "frequent"):
        return [command, pick("hyg")]
    if command == "generate":
        kind = draw(st.sampled_from(["ternary", "hphi", "bogus"]))
        sizes = ["3", "5", "8", "12", "2", "1", "0", "-1", "393", "1000001", "x"]
        params = draw(st.lists(st.sampled_from(sizes if kind == "hphi" else ["3", "2", "1", "4", "0", "-1", "6", "x"]),
                               min_size=draw(st.sampled_from([1 + (kind == "ternary")] * 3 + [0, 3])), max_size=3))
        return [command, kind, *params, *options({"--k": INTS, "--seed": INTS, "--colouring": "colouring"})]
    if command == "audit":
        return [command, draw(st.sampled_from(["vertex", "triple", "profile", "bogus"])), pick("hyg"), *options({
            "--d": REALS, "--eta": REALS, "--mode": st.sampled_from(["exact", "heuristic", "x"]),
            "--budget": INTS, "--restarts": INTS, "--seed": INTS,
            "--eta-grid": st.sampled_from(["0.5", "0.5,1.0", "", "x", "nan", "0", "1.5", ",", "0.25,0.5"]),
        })]
    if command == "sweep":
        return [command, "--", draw(INTS)]
    if command == "reduced":
        return [command, draw(st.sampled_from(["select", "verify", "x"])), pick("reduced"), *options({
            "--mu": REALS, "--f": INTS, "--selection": "selection",
        })]
    if command == "verify-fact7":
        return [command, *options({"--resolution": st.sampled_from(["-1", "0", "1", "2", "3", "11", "2002", "x"])})]
    if command == "audit-tn":
        return [command, *options({
            "--level": INTS, "--mode": st.sampled_from(["exact", "sampled", "x"]),
            "--samples": st.sampled_from(["-1", "0", "1", "5", "x"]), "--seed": INTS,
        })]
    if command == "optimality":
        return [command, *options({"--r": st.sampled_from(["-1", "0", "1", "3", "215", "216", "x"]),
                                         "--n": st.sampled_from(["-1", "0", "1", "3", "215", "216", "x"])})]
    if command == "supersat":
        return [command, *options({"--file": "hyg",
                                         "--nmax": st.sampled_from(["-1", "0", "1", "3", "64", "65", "x"])})]
    return [command, pick("hyg"), pick("hyg")]  # hom-count, embed


COMMANDS = ["decide-pi1", "frequent", "generate", "audit", "sweep", "reduced", "verify-fact7", "audit-tn",
            "optimality", "supersat", "hom-count", "embed"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_the_commands_cover_the_parser():
    choices = cli.build_parser()._subparsers._group_actions[0].choices
    assert sorted(COMMANDS) == sorted(choices)


@pytest.mark.parametrize("command", COMMANDS)
@FUZZ_SETTINGS
@given(data=st.data())
def test_every_run_ends_in_a_verdict_or_one_error_line(workdir, command, data):
    argv = draw_argv(data.draw, command, workdir)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage line(s), then the error
            assert exc.code == 2
            assert len(err.getvalue().splitlines()) >= 2 and ": error: " in err.getvalue().splitlines()[-1]
            return
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    elif command == "generate":
        assert err == ""
        parse_hypergraph(out)
    else:
        assert err == ""
        assert json.loads(out, parse_constant=reject_constant)["command"] == command
