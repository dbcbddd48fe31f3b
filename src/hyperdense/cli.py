"""Command-line entry point.

Exit codes: 0 affirmative/satisfied, 1 negative/violated/none,
2 usage or input error, 3 unresolved (heuristic budget exhausted),
4 internal fault (a failed self-check or any other unexpected error).
Every JSON report embeds as its config every argument of its subcommand
as parsed, defaults included.  Only `generate`, `audit` and `audit-tn`
draw random numbers, so only they take ``--seed``.

Each command imports the modules it runs inside its body, so a cold start
loads only those.  It loads numpy only where one of these needs it: a
heuristic or three-set density audit, an exact vertex or profile audit on
more than density.PYTHON_TABLE_LIMIT (12) vertices, the cube scan, a
sampled subset audit, the rainbow selection on a mu-dense input of more
than reduced.PYTHON_INDEX_LIMIT (10) indices, or a hom count into a host
of at least 27**3 tensor cells.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import hypergraphs

SCHEMA = 1

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_UNRESOLVED = 3
EXIT_INTERNAL = 4


def _emit(payload: dict, args) -> None:
    # JSON has no Infinity or NaN: a report holding one raises ValueError (exit 2)
    text = json.dumps(payload, indent=2, default=str, allow_nan=False) + "\n"
    out = getattr(args, "output", None)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _report(args, result: dict) -> None:
    """Emit a JSON report.  Its config is every argument of the subcommand
    as parsed, defaults included, in parser order; only the dispatch keys
    and the output path are left out."""
    config = {key: value for key, value in vars(args).items() if key not in ("func", "command", "output")}
    _emit({"schema": SCHEMA, "command": args.command, "config": config, "result": result}, args)


def _load_hypergraph(path: str) -> hypergraphs.Hypergraph:
    return hypergraphs.parse_hypergraph(Path(path).read_text())


def cmd_decide_pi1(args) -> int:
    from . import rainbow

    pattern = _load_hypergraph(args.file)
    witness = rainbow.find_rainbow_ordering(pattern)
    if witness is None:
        _report(args, {"witness": "none"})
        return EXIT_NEGATIVE
    if not rainbow.verify_rainbow_colouring(pattern, witness):
        raise RuntimeError("rainbow witness does not verify")
    result = {"witness": rainbow.witness_to_dict(witness, pattern.k)}
    _report(args, result)
    return EXIT_OK


def cmd_frequent(args) -> int:
    from . import ternary

    pattern = _load_hypergraph(args.file)
    witness = ternary.find_kary_embedding(pattern)
    if witness is None:
        _report(args, {"witness": "none"})
        return EXIT_NEGATIVE
    if not ternary.verify_kary_embedding(pattern, witness):
        raise RuntimeError("digit-string witness does not verify")
    result = {"witness": ternary.embedding_to_dict(witness)}
    _report(args, result)
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.kind == "ternary":
        from . import ternary

        if len(args.params) != 2:
            raise ValueError("generate ternary needs parameters: k n")
        k, n = (int(p) for p in args.params)
        host = ternary.build_kary(k, n)
        header = f"# ternary host: base {k}, depth {n}\n"
    else:
        from . import rainbow

        if len(args.params) != 1:
            raise ValueError("generate hphi needs a vertex count n")
        n = int(args.params[0])
        k = args.k
        if args.colouring:
            phi = rainbow.parse_pair_colouring(Path(args.colouring).read_text())
            if phi.n != n or phi.k != k:
                raise ValueError("colouring file does not match the requested k, n")
            header = f"# pattern host from explicit colouring, n={n}\n"
        else:
            phi = rainbow.random_pair_colouring(n, k, args.seed)
            header = f"# pattern host from random colouring, n={n}, seed={args.seed}\n"
        if k > 3:
            header += "# k>3 generalisation of the 3-uniform pattern-host construction\n"
        host = rainbow.build_pattern_host(phi)
    text = header + hypergraphs.serialize_hypergraph(host)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _verdict_exit(verdict: str) -> int:
    return {"satisfied": EXIT_OK, "violated": EXIT_NEGATIVE, "unresolved": EXIT_UNRESOLVED}[verdict]


def cmd_audit(args) -> int:
    from . import density

    host = _load_hypergraph(args.file)
    if args.notion == "profile":
        grid = [float(x) for x in args.eta_grid.split(",")] if args.eta_grid else [1.0]
        report = density.density_profile(
            host, grid, mode=args.mode, budget=args.budget, restarts=args.restarts, seed=args.seed
        )
        _report(args, report.to_dict())
        return EXIT_OK
    query = density.DensityQuery(
        d=args.d, eta=args.eta, mode=args.mode, budget=args.budget,
        restarts=args.restarts, seed=args.seed,
    )
    if args.notion == "vertex":
        report = density.vertex_density_check(host, query)
    else:
        report = density.triple_density_check(host, query)
    _report(args, report.to_dict())
    return _verdict_exit(report.verdict)


def cmd_sweep(args) -> int:
    from . import ternary

    f = args.f
    if not 0 <= f <= 5:
        raise ValueError(f"sweep needs 0 <= f <= 5, got f={f}")
    counts = ternary.classify_patterns(f)
    consistent = counts["frequent_not_orderable"] == 0
    result = {"f": f, "patterns": sum(counts.values()), "classes": counts,
              "consistent": consistent}
    _report(args, result)
    return EXIT_OK if consistent else EXIT_NEGATIVE


def cmd_reduced(args) -> int:
    from . import reduced

    rh = reduced.parse_reduced_json(Path(args.file).read_text())
    if args.action == "select":
        selection = reduced.select_rainbow_core(rh, args.mu, args.f)
        if selection is None:
            _report(args, {"selection": "none"})
            return EXIT_NEGATIVE
        result = {"selection": reduced.selection_to_dict(selection)}
        _report(args, result)
        return EXIT_OK
    if not args.selection:
        raise ValueError("reduced verify needs --selection FILE")
    sel = reduced.selection_from_dict(json.loads(Path(args.selection).read_text()))
    valid = reduced.verify_core(rh, sel)
    _report(args, {"valid": valid})
    return EXIT_OK if valid else EXIT_NEGATIVE


def cmd_verify_fact7(args) -> int:
    from . import inequalities

    minimum, point = inequalities.scan_inequality(args.resolution)
    identity_gap = abs(
        2.0 ** (inequalities.TAU - 1.0) - 3.0 ** (inequalities.TAU - 3.0)
    ) / 3.0 ** (inequalities.TAU - 3.0)
    result = {
        "minimum": minimum,
        "argmin": list(point),
        "resolution": args.resolution,
        "gap_at_110": inequalities.inequality_gap(1.0, 1.0, 0.0),
        "gap_at_111": inequalities.inequality_gap(1.0, 1.0, 1.0),
        "exponent_identity_relative_error": identity_gap,
        "tolerance": -1e-9,
    }
    _report(args, result)
    return EXIT_OK if minimum >= -1e-9 else EXIT_NEGATIVE


def cmd_audit_tn(args) -> int:
    from . import inequalities

    report = inequalities.audit_kary_subsets(args.level, mode=args.mode, samples=args.samples, seed=args.seed)
    _report(args, report.to_dict())
    return EXIT_OK if not report.violations else EXIT_NEGATIVE


def cmd_optimality(args) -> int:
    from . import inequalities

    stats = inequalities.binary_prefix_slice(args.r, args.n)
    result = {
        "r": stats.r, "n": stats.n, "eta": stats.eta, "size": stats.size,
        "edges": stats.edges, "bound": stats.bound, "ratio": stats.ratio,
    }
    _report(args, result)
    return EXIT_OK


def cmd_supersat(args) -> int:
    from . import inequalities

    pattern = _load_hypergraph(args.file)
    report = inequalities.supersaturation_experiment(pattern, n_max=args.nmax)
    _report(args, report.to_dict())
    return EXIT_OK


def cmd_hom_count(args) -> int:
    pattern = _load_hypergraph(args.pattern)
    host = _load_hypergraph(args.host)
    count = hypergraphs.count_homomorphisms(pattern, host)
    _report(args, {"count": count})
    return EXIT_OK


def cmd_embed(args) -> int:
    pattern = _load_hypergraph(args.pattern)
    host = _load_hypergraph(args.host)
    witness = hypergraphs.contains_copy(pattern, host)
    if witness is None:
        _report(args, {"witness": "none"})
        return EXIT_NEGATIVE
    if not hypergraphs.is_embedding(pattern, host, witness.mapping):
        raise RuntimeError("embedding witness does not verify")
    result = {"witness": {"mapping": {str(v): w for v, w in sorted(witness.mapping.items())}}}
    _report(args, result)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperdense",
        description="Decision procedures and density auditors for k-uniform hypergraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--output", "-o", help="write the report to a file instead of stdout")
        return p

    p = add("decide-pi1", cmd_decide_pi1,
            "search for a vertex ordering with a conflict-free forced shadow colouring")
    p.add_argument("file")

    p = add("frequent", cmd_frequent,
            "decide whether the pattern embeds into a digit-string host")
    p.add_argument("file")

    p = add("generate", cmd_generate, "emit a host hypergraph in HYG format")
    p.add_argument("kind", choices=["ternary", "hphi"])
    p.add_argument("params", nargs="*")
    p.add_argument("--k", type=int, default=3, help="uniformity for hphi generation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--colouring", help="pair-colouring file for hphi (overrides --seed)")

    p = add("audit", cmd_audit, "audit a density notion and emit a certificate report")
    p.add_argument("notion", choices=["vertex", "triple", "profile"])
    p.add_argument("file")
    p.add_argument("--d", type=float, default=0.5)
    p.add_argument("--eta", type=float, default=0.01)
    p.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eta-grid", help="comma-separated eta values for the profile notion")

    p = add("sweep", cmd_sweep,
            "classify all labeled 3-uniform patterns on f vertices by the two deciders")
    p.add_argument("f", type=int)

    p = add("reduced", cmd_reduced, "run or verify the staged rainbow selection")
    p.add_argument("action", choices=["select", "verify"])
    p.add_argument("file")
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--f", type=int, default=3)
    p.add_argument("--selection", help="selection JSON to verify")

    p = add("verify-fact7", cmd_verify_fact7,
            "grid-scan the cube inequality floor and its boundary identities")
    p.add_argument("--resolution", type=int, default=201)

    p = add("audit-tn", cmd_audit_tn,
            "audit the per-subset edge floor of the depth-l ternary host")
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)

    p = add("optimality", cmd_optimality,
            "exact statistics of the binary-prefix slice {0,1}^r x {0,1,2}^(n-r)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("supersat", cmd_supersat,
            "exact homomorphism counts of a pattern into depth-1..nmax hosts")
    p.add_argument("--file", required=True)
    p.add_argument("--nmax", type=int, default=3)

    p = add("hom-count", cmd_hom_count, "exact homomorphism count between two hypergraphs")
    p.add_argument("pattern")
    p.add_argument("host")

    p = add("embed", cmd_embed, "find an injective copy of a pattern inside a host")
    p.add_argument("pattern")
    p.add_argument("host")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # Never exit 1 on a fault: 1 means "negative".
        print(f"error: internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
