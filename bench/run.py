"""Benchmark entry point.

    python3 bench/run.py --workload {search,scan,cli} --seed N --seconds S --trace {0,1}

The command first starts several fresh set-up processes to time set-up,
then one fresh process that sets up again and runs the workload's rounds
for about S seconds.  It checks every job, writes a full run record to
bench/results/, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import harness

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = ("search", "scan", "cli")
SETUP_SAMPLES = 5  # fresh processes timed from start to ready; the middle one runs
PROBE_REPEATS = 5  # bare-interpreter and import probes in a traced run
READY = "ready"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one job of each kind, two rounds, two set-up samples")
    p.add_argument("--role", choices=("setup", "run"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# the fresh workload process


def child(args: argparse.Namespace) -> int:
    """Set up, say ready, and (for --role run) run the rounds and report."""
    sys.path.insert(0, str(ROOT / "src"))
    import hyperdense
    import numpy

    if Path(hyperdense.__file__).resolve().parent != ROOT / "src" / "hyperdense":
        raise SystemExit(f"imported hyperdense from {hyperdense.__file__}, not from this checkout")
    import workloads

    workload = workloads.build(args.workload, args.seed, ROOT, args.smoke)
    try:
        print(READY, flush=True)
        if args.role == "setup":
            return 0
        rounds, tracer, mismatches = harness.run_rounds(workload.jobs, args.seconds, workload.min_rounds, bool(args.trace))
    finally:
        workload.close()
    record = summarize(workload, rounds, mismatches)
    record["numpy"] = numpy.__version__
    if args.trace:
        record["layers"] = layers(tracer, rounds)
        spans_path = BENCH / "results" / f"{args.workload}-seed{args.seed}.spans.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        with spans_path.open("w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.job, s.attrs]) + "\n")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(record), flush=True)
    return 0


def summarize(workload, rounds, mismatches) -> dict:
    """The run record of the workload process, failures and digests included."""
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    failures = [f for r in rounds for f in r.failures] + mismatches
    return {
        "jobs_per_round": len(workload.jobs),
        "rounds": len(rounds),
        "attempted": sum(len(r.job_s) for r in rounds),
        "failed": sum(len(r.failures) for r in rounds) + len(mismatches),
        "failures": failures[:20],
        "round_wall_s": [r.wall_s for r in rounds],
        "round_traced": [r.traced for r in rounds],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "input_digest": harness.digest(workload.input_digest_source),
        "output_digest": harness.digest(rounds[0].summaries),
        "end_to_end": harness.end_to_end(rounds, len(workload.jobs), workload.min_rounds),
    }


def layers(tracer, rounds) -> dict:
    """Per-layer metrics from the spans, plus the verdict share of the
    heuristic audits and the process-start probes."""
    import workloads

    out = harness.layer_metrics(rounds, tracer.spans)
    violated = [s.attrs["violated"] for s in tracer.spans if "violated" in s.attrs]
    if violated:
        out["density.heuristic.violated_frac"] = sum(violated) / len(violated)
    interpreter = statistics.median(workloads.process_probe_ms(ROOT, "pass", PROBE_REPEATS))
    imported = statistics.median(workloads.process_probe_ms(ROOT, "import hyperdense", PROBE_REPEATS))
    out["cli.interpreter_ms"] = interpreter
    out["cli.import_ms"] = imported - interpreter
    cli_ms: dict[str, list[float]] = {}
    for s in tracer.spans:
        if s.parent is not None and s.name.startswith("cli."):
            cli_ms.setdefault(s.name, []).append(1000.0 * (s.end - s.start))
    for name, values in cli_ms.items():
        out[f"{name}.ms"] = statistics.median(values)
    if cli_ms:
        out["cli.command_ms"] = statistics.median(v for vs in cli_ms.values() for v in vs) - imported
    return out


# ---------------------------------------------------------------------------
# the orchestrating process


def start_child(args: argparse.Namespace, role: str) -> tuple[subprocess.Popen, float]:
    """Start a fresh workload process; return it and its start-to-ready time."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--role", role, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if line.strip() != READY:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{role} process for {args.workload} did not get ready (exit {proc.returncode})")
    return proc, ready


def finish_child(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("workload process timed out") from None
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return out


def environment() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def orchestrate(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "hyperdense" / "__init__.py").is_file():
        print("error: the hyperdense sources (src/hyperdense) are not in this checkout", file=sys.stderr)
        return 2

    def probe_setup(count: int) -> list[float]:
        samples = []
        for _ in range(count):
            proc, ready = start_child(args, "setup")
            finish_child(proc, 120)
            samples.append(ready)
        return samples

    # Set-up samples are taken before and after the rounds, so that their
    # median spans the machine's state over the whole run.
    probes = 1 if args.smoke else (SETUP_SAMPLES - 1) // 2
    setup_s = probe_setup(probes)
    proc, ready = start_child(args, "run")
    record = json.loads(finish_child(proc, args.seconds + 150).strip().splitlines()[-1])
    setup_s += [ready] + probe_setup(probes)

    e2e = record["end_to_end"]
    end_to_end = {
        "wall_s": (e2e["wall_s"], "s"),
        "job_ms_p50": (e2e["job_ms_p50"], "ms"),
        "job_ms_tail": (e2e["job_ms_tail"], "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "passed_frac": (1.0 - record["failed"] / record["attempted"], "ratio"),
    }
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        setup_samples_s=setup_s, failed_frac=record["failed"] / record["attempted"],
        metrics={k: v for k, (v, _) in end_to_end.items()}, **environment(),
    )
    if args.trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        layers = record["layers"]
        shown = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        shown = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}
    out = BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"run record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": shown}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role:
        return child(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
