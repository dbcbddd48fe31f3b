"""The three benchmark workloads: their seeded jobs and correctness checks.

Each `build_*` function takes the seed and returns a `Workload`.  Jobs call the
program's public functions through the tracer, one span per call, and
never through composite helpers (`supersaturation_experiment`,
`is_frequent`, `cli.main`), so no layer's time hides inside another's.
Objects that the program caches on (`Hypergraph`) are built afresh inside
each job, so every round does the same work.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

import inputs
from harness import CheckFailed, Job, require

from hyperdense import (
    Hypergraph,
    audit_kary_subsets,
    build_kary,
    build_pattern_host,
    contains_copy,
    count_homomorphisms,
    density_profile,
    find_kary_embedding,
    find_rainbow_ordering,
    forced_colouring,
    inequality_gap,
    is_embedding,
    kary_edge_count,
    parse_hypergraph,
    scan_inequality,
    select_rainbow_core,
    triple_density_check,
    verify_core,
    verify_density_certificate,
    verify_kary_embedding,
    verify_rainbow_colouring,
    vertex_density_check,
)
from hyperdense.density import DensityQuery, ordered_triple_count, subset_relative_density
from hyperdense.hypergraphs import induced_edge_count
from hyperdense.rainbow import PairColouring, ShadowColouring
from hyperdense.reduced import ReducedHypergraph, reduced_from_dict, selection_from_dict
from hyperdense.ternary import EmbeddingWitness

K4 = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
HOM_PATTERNS = {
    "edge": (3, ((0, 1, 2),)),
    "P4": (4, ((0, 1, 2), (1, 2, 3))),
    "P5": (5, ((0, 1, 2), (1, 2, 3), (2, 3, 4))),
}
# hom(P, T_depth); depth 2 is re-derived by brute force in the benchmark's tests.
HOM_COUNTS = {
    ("P4", 2): 504,
    ("P4", 3): 40878,
    ("P4", 4): 3311280,
    ("P5", 2): 1476,
    ("P5", 3): 358722,
}
SLACK_TOL = 1e-9
RANDOM_PROBES = 16  # seeded random subsets each exact minimum is compared against


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    min_rounds: int
    input_digest_source: Any
    close: Callable[[], None] = lambda: None


def found(value) -> dict:
    return {"found": value is not None}


def hypergraph(n: int, edges) -> Hypergraph:
    return Hypergraph(3, n, tuple(edges))


# ---------------------------------------------------------------------------
# search: backtracking, counting and local search


def decider_summary(pattern: Hypergraph, ordering, embedding, orderable: Optional[bool]) -> dict:
    if ordering is not None:
        require(verify_rainbow_colouring(pattern, ordering), "rainbow witness does not verify")
    if embedding is not None:
        require(verify_kary_embedding(pattern, embedding), "digit-string witness does not verify")
        require(ordering is not None, "embeddable pattern reported unorderable")
    if orderable is not None:
        require((ordering is not None) == orderable, f"orderable should be {orderable}")
    return {
        "order": None if ordering is None else list(ordering.order),
        "embedding": None if embedding is None else sorted(embedding.mapping.items()),
    }


def decide_job(name: str, n: int, edges, orderable: Optional[bool], host: Optional[tuple] = None) -> Job:
    """Both deciders on one pattern; with `host`, also find it back there."""

    def run(t):
        pattern = hypergraph(n, edges)
        ordering = t.call("rainbow.find_rainbow_ordering", find_rainbow_ordering, pattern, attrs=found)
        embedding = t.call("ternary.find_kary_embedding", find_kary_embedding, pattern, attrs=found)
        copy = None
        if host is not None:
            copy = t.call("hypergraphs.contains_copy", contains_copy, pattern, hypergraph(*host), attrs=found)
        return pattern, ordering, embedding, copy

    def check(out):
        pattern, ordering, embedding, copy = out
        summary = decider_summary(pattern, ordering, embedding, orderable)
        if host is not None:
            require(copy is not None, "sub-pattern not found in its host")
            require(is_embedding(pattern, hypergraph(*host), copy.mapping), "copy witness does not verify")
            summary["copy"] = sorted(copy.mapping.items())
        return summary

    return Job(name, run, check)


def k4_job(n: int, colours: dict) -> Job:
    reference = inputs.pattern_host_edges(colours, n)

    def run(t):
        host = t.call("rainbow.build_pattern_host", build_pattern_host, PairColouring(3, n, colours))
        return host, t.call("hypergraphs.contains_copy", contains_copy, hypergraph(4, K4), host, attrs=found)

    def check(out):
        host, copy = out
        require(list(host.edges) == reference, "pattern host differs from the pattern rule")
        require(copy is None, "K4 found in a pattern host")
        return {"edges": host.edge_count}

    return Job(f"k4/n{n}", run, check)


def hom_job(pattern_name: str, depth: int, pedges=None, tag: str = "") -> Job:
    """Host construction plus an exact hom count of the pattern, whose edges
    may be given relabelled (the count does not change)."""
    pn = HOM_PATTERNS[pattern_name][0]
    pedges = HOM_PATTERNS[pattern_name][1] if pedges is None else pedges

    def run(t):
        host = t.call("ternary.build_kary", build_kary, 3, depth)
        return host, t.call("hypergraphs.count_homomorphisms", count_homomorphisms, hypergraph(pn, pedges), host)

    def check(out):
        host, count = out
        require(host.edge_count == kary_edge_count(3, depth), "build_kary edge count is off")
        want = 6 * host.edge_count if pattern_name == "edge" else HOM_COUNTS[(pattern_name, depth)]
        require(count == want, f"hom({pattern_name}, T{depth}) = {count}, expected {want}")
        return count

    return Job(f"hom-{pattern_name}/T{depth}{tag}", run, check)


def violated(report) -> dict:
    return {"violated": report.verdict == "violated"}


def vertex_heuristic_attrs(report) -> dict:
    return {"violated": report.verdict == "violated", "steps": report.stats["steps"]}


def certificate_check(host: Hypergraph, report) -> None:
    """A violated verdict must re-verify independently, with the same negative slack."""
    if report.verdict == "violated":
        recomputed = verify_density_certificate(host, report)
        require(recomputed < 0 and abs(recomputed - report.slack) < SLACK_TOL, "certificate does not re-verify")


def heuristic_jobs(hosts: list, d_vertex: float, d_triple: float) -> list[Job]:
    """Vertex, triple and profile audits at the default budget and restarts,
    each on its own host, so that one host's cost does not move all three;
    the two values of d give both heuristic verdicts."""

    def audit_job(notion: str, fn, attrs, d: float, n: int, edges) -> Job:
        query = DensityQuery(d=d, eta=0.01, mode="heuristic")

        def run(t):
            host = hypergraph(n, edges)
            return host, t.call(f"density.{notion}.heuristic", fn, host, query, attrs=attrs)

        def check(out):
            host, report = out
            require(report.verdict in ("violated", "unresolved"), f"heuristic verdict {report.verdict}")
            certificate_check(host, report)
            return {"verdict": report.verdict, "slack": report.slack, "certificate": report.certificate}

        return Job(f"heuristic-{notion.split('_')[0]}/d{d}", run, check)

    n, edges = hosts[2]

    def profile_run(t):
        host = hypergraph(n, edges)
        return host, t.call("density.density_profile.heuristic", density_profile, host, [0.5, 1.0], mode="heuristic")

    def profile_check(out):
        host, report = out
        for entry in report.entries:
            require(entry.subset is not None and len(entry.subset) >= entry.size_floor, "profile subset below floor")
            require(abs(subset_relative_density(host, entry.subset) - entry.density) < SLACK_TOL, "profile density off")
        return [[e.eta, e.density, list(e.subset)] for e in report.entries]

    return [
        audit_job("vertex_density_check", vertex_density_check, vertex_heuristic_attrs, d_vertex, *hosts[0]),
        audit_job("triple_density_check", triple_density_check, violated, d_triple, *hosts[1]),
        Job(f"heuristic-profile/n{n}", profile_run, profile_check),
    ]


def select_job(tag: str, rh, mu: float, f: int) -> Job:
    def run(t):
        return t.call("reduced.select_rainbow_core", select_rainbow_core, rh, mu, f, attrs=found)

    def check(sel):
        if sel is None:
            return None
        require(len(sel.indices) == f and verify_core(rh, sel), "selection does not verify")
        return [list(sel.indices), sorted(sel.red.items()), sorted(sel.blue.items()), sorted(sel.green.items())]

    return Job(f"select/{tag}/f{f}", run, check)


def build_search(seed: int) -> Workload:
    rng = lambda label: inputs.rng_for("search", seed, label)  # noqa: E731
    jobs: list[Job] = []
    sources: dict[str, Any] = {}

    patterns = inputs.all_patterns(5)
    jobs += [decide_job(f"five/{i}", 5, p, None) for i, p in enumerate(patterns)]
    sources["five"] = patterns

    hosts = []
    for h in range(3):
        colours = inputs.pair_colours(rng(f"sub-host/{h}"), 20)
        hosts.append((20, tuple(inputs.pattern_host_edges(colours, 20))))
    subs = []
    for i in range(12):
        edges = inputs.connected_subpattern(rng(f"sub/{i}"), hosts[i % 3][1], 8)
        subs.append(edges)
        jobs.append(decide_job(f"sub/{i}", 8, edges, True, host=hosts[i % 3]))
    sources["sub"] = [hosts, subs]

    unorderable = [inputs.planted_k4_edges(rng(f"unorderable/{i}"), 8, 0.5) for i in range(6)]
    jobs += [decide_job(f"unorderable/{i}", 8, e, False) for i, e in enumerate(unorderable)]
    sources["unorderable"] = unorderable

    k4_colours = {n: inputs.pair_colours(rng(f"k4-host/{n}"), n) for n in (30, 45, 60)}
    jobs += [k4_job(n, c) for n, c in k4_colours.items()]
    sources["k4"] = {n: sorted(c.items()) for n, c in k4_colours.items()}

    # Three relabellings of P5 -> T3 form a cluster of like-sized jobs for
    # the tail rank to fall into, just below P4 -> T4 and the heuristic audits.
    hom_cases = [("edge", d, "") for d in (2, 3, 4)] + [("P4", d, "") for d in (2, 3, 4)]
    hom_cases += [("P5", 2, "")] + [("P5", 3, f"/{i}") for i in range(3)]
    for name, depth, tag in hom_cases:
        n, edges = HOM_PATTERNS[name]
        relabelled = inputs.relabel(edges, n, rng(f"hom/{name}/{depth}{tag}"))
        jobs.append(hom_job(name, depth, relabelled, tag))
        sources[f"hom/{name}/{depth}{tag}"] = relabelled

    audit_hosts = [(60, inputs.pattern_host_edges(inputs.pair_colours(rng(f"audit-host/{i}"), 60), 60))
                   for i in range(3)]
    jobs += heuristic_jobs(audit_hosts, 0.2, 0.01)
    sources["audit"] = audit_hosts

    for m, f in ((24, 4), (28, 7), (32, 4), (32, 7)):
        sizes, constituents = inputs.reduced_instance(rng(f"reduced/{m}"), m, 3, 0.55, 0.4)
        rh = ReducedHypergraph.from_parts(m, sizes, constituents)
        jobs.append(select_job(f"m{m}", rh, 0.4, f))
        sources[f"reduced-{m}-{f}"] = inputs.reduced_json(m, sizes, constituents)

    return Workload("search", jobs, 2, sources)


# ---------------------------------------------------------------------------
# scan: exhaustive subset enumeration and numpy kernels


def random_subsets(rng, n: int, floor: int = 0) -> list[list[int]]:
    out = []
    for _ in range(RANDOM_PROBES):
        size = rng.randint(floor, n)
        out.append(sorted(rng.sample(range(n), size)))
    return out


def parsed_check(host: Hypergraph, edges) -> None:
    require(list(host.edges) == list(edges), "parsed host differs from its text")


def vertex_exact_job(tag: str, n: int, edges, d: float, probes) -> Job:
    text = inputs.hyg_text(n, edges)
    query = DensityQuery(d=d, eta=0.01)

    def run(t):
        host = t.call("hypergraphs.parse_hypergraph", parse_hypergraph, text)
        report = t.call("density.vertex_density_check.exact", vertex_density_check, host, query,
                        attrs=lambda r: {"subsets": r.stats["subsets_examined"]})
        return host, report

    def check(out):
        host, report = out
        parsed_check(host, edges)
        certificate_check(host, report)
        require((report.verdict == "satisfied") == (report.slack >= 0), "verdict disagrees with slack")
        penalty = query.eta * n**3
        for subset in probes:
            slack = induced_edge_count(host, subset) - d * comb(len(subset), 3) + penalty
            require(report.slack <= slack + SLACK_TOL, "exact minimum above a random subset")
        return {"verdict": report.verdict, "slack": report.slack, "argmin": report.stats["argmin"]}

    return Job(f"vertex-exact/{tag}", run, check)


def profile_exact_job(tag: str, n: int, edges, grid, probes) -> Job:
    text = inputs.hyg_text(n, edges)

    def run(t):
        host = t.call("hypergraphs.parse_hypergraph", parse_hypergraph, text)
        report = t.call("density.density_profile.exact", density_profile, host, grid,
                        attrs=lambda r: {"subsets": r.stats["subsets_examined"]})
        return host, report

    def check(out):
        host, report = out
        parsed_check(host, edges)
        for entry in report.entries:
            require(entry.subset is not None, "profile entry without a subset")
            require(abs(subset_relative_density(host, entry.subset) - entry.density) < SLACK_TOL, "profile density off")
            for subset in probes:
                if len(subset) >= max(entry.size_floor, 3):
                    require(entry.density <= subset_relative_density(host, subset) + SLACK_TOL,
                            "exact profile minimum above a random subset")
        return [[e.eta, e.density, list(e.subset)] for e in report.entries]

    return Job(f"profile-exact/{tag}", run, check)


def triple_exact_job(tag: str, n: int, edges, d: float, probes) -> Job:
    text = inputs.hyg_text(n, edges)
    query = DensityQuery(d=d, eta=0.01)

    def run(t):
        host = t.call("hypergraphs.parse_hypergraph", parse_hypergraph, text)
        report = t.call("density.triple_density_check.exact", triple_density_check, host, query,
                        attrs=lambda r: {"pairs": r.stats["pairs_examined"]})
        return host, report

    def check(out):
        host, report = out
        parsed_check(host, edges)
        certificate_check(host, report)
        penalty = query.eta * n**3
        for xs, ys, zs in zip(probes[0::3], probes[1::3], probes[2::3]):
            slack = ordered_triple_count(host, xs, ys, zs) - d * len(xs) * len(ys) * len(zs) + penalty
            require(report.slack <= slack + SLACK_TOL, "exact minimum above random triple")
        return {"verdict": report.verdict, "slack": report.slack, "argmin": report.stats["argmin"]}

    return Job(f"triple-exact/{tag}", run, check)


def kary_audit_job(mode: str, level: int, samples: int, seed: int) -> Job:
    expected = 2 ** (3**level) if mode == "exact" else samples

    def run(t):
        return t.call(f"inequalities.audit_kary_subsets.{mode}", audit_kary_subsets, level, mode=mode,
                      samples=samples, seed=seed, attrs=lambda r: {"subsets": r.examined})

    def check(report):
        require(report.violations == [], "edge-floor violation in the ternary host")
        require(report.examined == expected, f"examined {report.examined}, expected {expected}")
        return report.to_dict()

    return Job(f"audit-tn-{mode}/l{level}", run, check)


def scan_inequality_job(resolution: int) -> Job:
    def run(t):
        return t.call("inequalities.scan_inequality", scan_inequality, resolution,
                      attrs=lambda r: {"points": resolution**3})

    def check(out):
        minimum, point = out
        require(minimum >= -1e-9, f"cube inequality minimum {minimum} below the floor")
        require(abs(inequality_gap(*point) - minimum) <= 1e-9, "argmin disagrees with inequality_gap")
        return [minimum, list(point)]

    return Job(f"fact7/r{resolution}", run, check)


def build_scan(seed: int) -> Workload:
    rng = lambda label: inputs.rng_for("scan", seed, label)  # noqa: E731
    jobs: list[Job] = []
    sources: dict[str, Any] = {}
    # Sparse pattern hosts (density ~1/27) and dense random hosts (p = 0.4);
    # the two values of d per kind put hosts on both sides of the verdict.
    cases = [("sparse", n, d) for n, d in ((16, 0.05), (18, 0.3), (20, 0.05))]
    cases += [("dense", n, d) for n, d in ((16, 0.3), (18, 0.5))]
    for kind, n, d in cases:
        r = rng(f"{kind}/{n}")
        edges = (inputs.pattern_host_edges(inputs.pair_colours(r, n), n) if kind == "sparse"
                 else inputs.random_edges(r, n, 0.4))
        probes = random_subsets(rng(f"{kind}/{n}/probes"), n)
        jobs.append(vertex_exact_job(f"{kind}/n{n}", n, edges, d, probes))
        jobs.append(profile_exact_job(f"{kind}/n{n}", n, edges, [0.25, 0.5, 0.75, 1.0], probes))
        sources[f"{kind}-{n}"] = [d, edges]
    # Twelve like-sized triple audits on dense hosts sit in the middle of the
    # job-time distribution, so the median job is one of them rather than a
    # border between two job kinds of different cost.
    triples = [(8, (0.1, 0.5)[i % 2]) for i in range(12)] + [(9, 0.1)]
    for i, (n, d) in enumerate(triples):
        edges = inputs.random_edges(rng(f"triple/{i}"), n, 0.4)
        probes = random_subsets(rng(f"triple/{i}/probes"), n)
        jobs.append(triple_exact_job(f"{i}/n{n}", n, edges, d, probes))
        sources[f"triple-{i}"] = [d, edges]
    sample_seed = rng("audit-tn").getrandbits(32)
    jobs.append(kary_audit_job("exact", 2, 0, 0))
    jobs.append(kary_audit_job("sampled", 3, 200_000, sample_seed))
    jobs += [scan_inequality_job(r) for r in (201, 301, 401)]
    sources["audit-tn-seed"] = sample_seed
    return Workload("scan", jobs, 2, sources)


# ---------------------------------------------------------------------------
# cli: one cold `python -m hyperdense` process per job


def program_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_process(argv: list[str], cwd: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=60)


def report_of(proc: subprocess.CompletedProcess, exit_code: int) -> dict:
    require(proc.returncode == exit_code, f"exit {proc.returncode}, expected {exit_code}: {proc.stderr[-300:]}")
    try:
        payload = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None
    require(payload.get("schema") == 1 and "result" in payload, "report lacks schema or result")
    return payload["result"]


def build_cli(seed: int, root: Path, smoke: bool = False) -> Workload:
    rng = lambda label: inputs.rng_for("cli", seed, label)  # noqa: E731
    work = root / "bench" / "work" / f"cli-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = program_env(root)

    t2 = inputs.kary_host_edges(2)
    pn = 5
    pedges = inputs.connected_subpattern(rng("pattern"), t2, pn)
    phn = 14
    colours = inputs.pair_colours(rng("hphi"), phn)
    an = 10
    audit_edges = inputs.random_edges(rng("audit"), an, 0.4)
    # d is set so that the whole vertex set already violates: exit 1 by construction.
    audit_d = round(min(1.0, (len(audit_edges) + 0.01 * an**3) / comb(an, 3) + 0.05), 2)
    reduced = inputs.reduced_json(6, *inputs.reduced_instance(rng("reduced"), 6, 2, 0.8, 0.5))
    r = rng("optimality").randint(0, 3)
    n = r + rng("optimality/n").randint(1, 3)
    files = {
        "pattern.hyg": inputs.hyg_text(pn, pedges),
        "t2.hyg": inputs.hyg_text(9, t2),
        "phi.txt": inputs.colouring_text(phn, colours),
        "audit.hyg": inputs.hyg_text(an, audit_edges),
        "reduced.json": reduced,
    }
    for name, text in files.items():
        (work / name).write_text(text)
    pattern = hypergraph(pn, pedges)
    t2_host = hypergraph(9, t2)

    def check_decide(proc):
        order = report_of(proc, 0)["witness"]["ordering"]
        witness = forced_colouring(pattern, order)
        require(isinstance(witness, ShadowColouring) and verify_rainbow_colouring(pattern, witness),
                "ordering has a conflict")
        return order

    def check_frequent(proc):
        w = report_of(proc, 0)["witness"]
        mapping = {int(v): tuple(int(c) for c in s) for v, s in w["map"].items()}
        require(verify_kary_embedding(pattern, EmbeddingWitness(3, w["length"], mapping)), "embedding does not verify")
        return w

    def check_generate(proc):
        require(proc.returncode == 0, f"exit {proc.returncode}")
        host = parse_hypergraph(proc.stdout)
        require(list(host.edges) == inputs.pattern_host_edges(colours, phn), "generated host differs")
        return host.edge_count

    def check_audit(proc):
        result = report_of(proc, 1)
        u = result["certificate"]["U"]
        slack = induced_edge_count(hypergraph(an, audit_edges), u) - audit_d * comb(len(u), 3) + 0.01 * an**3
        require(slack < 0 and abs(slack - result["slack"]) < SLACK_TOL, "certificate does not re-verify")
        return result

    def check_sweep(proc):
        result = report_of(proc, 0)
        require(result["patterns"] == 16 and result["consistent"], "sweep of f=4 is off")
        return result

    def check_reduced(proc):
        require(proc.returncode in (0, 1), f"exit {proc.returncode}: {proc.stderr[-300:]}")
        result = report_of(proc, proc.returncode)
        if proc.returncode == 0:
            sel = selection_from_dict(result["selection"])
            require(verify_core(reduced_from_dict(json.loads(reduced)), sel), "selection does not verify")
        else:
            require(result["selection"] == "none", "exit 1 without 'none'")
        return result

    def check_fact7(proc):
        result = report_of(proc, 0)
        require(result["minimum"] >= -1e-9, "cube inequality below its floor")
        return result["minimum"]

    def check_audit_tn(proc):
        result = report_of(proc, 0)
        require(result["examined"] == 512 and result["violations"] == [], "level-2 audit is off")
        return result

    def check_optimality(proc):
        result = report_of(proc, 0)
        require(result["edges"] == inputs.slice_edges(r, n), "slice edge count is off")
        return result["edges"]

    @functools.cache
    def homs_into(depth: int) -> int:
        return inputs.brute_force_homs(pn, pedges, 3**depth, inputs.kary_host_edges(depth))

    def check_supersat(proc):
        entries = report_of(proc, 0)["entries"]
        require([(e["depth"], e["hom"]) for e in entries] == [(1, homs_into(1)), (2, homs_into(2))],
                "supersat hom counts are off")
        return entries

    def check_hom(proc):
        count = report_of(proc, 0)["count"]
        require(count == homs_into(2), "hom count into T2 is off")
        return count

    def check_embed(proc):
        mapping = {int(v): w for v, w in report_of(proc, 0)["witness"]["mapping"].items()}
        require(is_embedding(pattern, t2_host, mapping), "embedding witness does not verify")
        return mapping

    commands = [
        ("decide-pi1", ["pattern.hyg"], check_decide),
        ("frequent", ["pattern.hyg"], check_frequent),
        ("generate", ["hphi", str(phn), "--colouring", "phi.txt"], check_generate),
        ("audit", ["vertex", "audit.hyg", "--d", str(audit_d), "--eta", "0.01"], check_audit),
        ("sweep", ["4"], check_sweep),
        ("reduced", ["select", "reduced.json", "--mu", "0.5", "--f", "3"], check_reduced),
        ("verify-fact7", ["--resolution", "101"], check_fact7),
        ("audit-tn", ["--level", "2"], check_audit_tn),
        ("optimality", ["--r", str(r), "--n", str(n)], check_optimality),
        ("supersat", ["--file", "pattern.hyg", "--nmax", "2"], check_supersat),
        ("hom-count", ["pattern.hyg", "t2.hyg"], check_hom),
        ("embed", ["pattern.hyg", "t2.hyg"], check_embed),
    ]
    jobs = []
    for sub, args, check in commands:
        argv = [sys.executable, "-m", "hyperdense", sub, *args]

        def run(t, argv=argv, sub=sub):
            return t.call(f"cli.{sub}", run_process, argv, work, env)

        jobs.append(Job(f"cli/{sub}", run, check))

    def close():
        for name in files:
            (work / name).unlink(missing_ok=True)
        work.rmdir()

    return Workload("cli", jobs, 2 if smoke else 6, {"files": files, "argv": [c[:2] for c in commands]}, close)


def process_probe_ms(root: Path, code: str, repeats: int) -> list[float]:
    """Wall time of `python -c code` in a fresh process, `repeats` times."""
    env = program_env(root)
    out = []
    for _ in range(repeats):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, timeout=60)
        out.append(1000.0 * (perf_counter() - start))
        require(proc.returncode == 0, f"probe {code!r} failed")
    return out


def build(name: str, seed: int, root: Path, smoke: bool = False) -> Workload:
    """The workload's jobs in a seeded order.  A smoke build keeps the first
    job of each kind (the part of a job's name before the first '/'), in
    build order, which holds the smallest inputs, and runs two rounds."""
    if name == "search":
        workload = build_search(seed)
    elif name == "scan":
        workload = build_scan(seed)
    else:
        return build_cli(seed, root, smoke)
    if smoke:
        kinds: dict[str, Job] = {}
        for job in workload.jobs:
            kinds.setdefault(job.name.split("/")[0], job)
        workload.jobs, workload.min_rounds = list(kinds.values()), 2
    else:
        inputs.rng_for(name, seed, "order").shuffle(workload.jobs)
    return workload
