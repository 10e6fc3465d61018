#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one measured run.

Usage (from the repository root)::

    python3 perfbench/run.py --service-rate 30 --workload long_pacbio \\
        --seed 1 --seconds 34 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that prints the per-layer ledger
and writes a Chrome trace to ``perfbench/out/``.  Either way every output
is checked against the serial ``GenASMAligner``, and the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit codes: 0 correct and valid; 1 a wrong, failed or invalid run (the
result line still prints, with ``"correct": false``); 2 the program or
``BENCHMARK.json`` cannot be found or the arguments are wrong (nothing is
printed on standard output).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--service-rate",
        type=float,
        help="open-loop request rate of service_open (fixed in BENCHMARK.json's command)",
    )
    parser.add_argument("--generate", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# --------------------------------------------------------------------------- #
# Provenance
# --------------------------------------------------------------------------- #
def source_fingerprint(root: Path = SRC) -> str:
    """Digest of every Python file under ``root`` (the checkout is not always a repo)."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def provenance(args, inputs, why: str, src: str) -> dict:
    import numpy

    from repro import BatchAlignmentEngine
    from repro.batch.kernels import resolve_kernel_backend

    engine = BatchAlignmentEngine(inputs.config)
    summary = {
        "reads": inputs.reads,
        "pairs": len(inputs.pairs),
        "pattern_bases": inputs.pattern_bases,
        "windows_per_pair": statistics.mean(
            engine.expected_windows(len(p)) for p, _ in inputs.pairs
        ),
        "words_per_lane": engine.words_per_lane,
        "window_size": inputs.config.window_size,
    }
    if inputs.requests:
        summary["requests_in_pool"] = len(inputs.requests)
    return {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_fingerprint": src,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": resolve_kernel_backend(inputs.config.kernel_backend),
        "inputs": summary,
    }


# --------------------------------------------------------------------------- #
# Runs
# --------------------------------------------------------------------------- #
def runner_factory(args, inputs):
    """Build the workload's runner; the service splits a traced run in halves."""
    from workloads import RUNNERS

    seconds = args.seconds / 2 if args.trace else args.seconds
    return partial(
        RUNNERS[args.workload], inputs, out_dir=OUT, rate=args.service_rate, seconds=seconds
    )


def setup_probe(args) -> int:
    """Child process: one cold set-up, its times printed as JSON.

    The clock covers importing the workload's modules (numpy and ``repro``
    included, as a fresh user process pays them) and building the runner
    with its warm-up pass; loading the pickled inputs is not timed.
    """
    start = time.perf_counter()
    import workloads

    imported = time.perf_counter() - start
    with open(args.setup_probe, "rb") as handle:
        inputs = pickle.load(handle)
    start = time.perf_counter()
    runner = runner_factory(args, inputs)()
    built = time.perf_counter() - start
    runner.close()
    print(json.dumps({"import_s": imported, "build_s": built, **runner.setup_layers}))
    return 0


def setup_probes(argv, inputs_path: Path) -> list:
    """:data:`workloads.SETUP_REPEATS` cold set-ups, each in a fresh process."""
    from workloads import SETUP_REPEATS

    probes = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv,
             "--setup-probe", str(inputs_path)],
            capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"set-up failed in a fresh process (exit {done.returncode})")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


def end_to_end(args, argv, inputs, inputs_path: Path, report: dict):
    import workloads
    from workloads import SUSTAINED_PERCENTILE, percentile

    probes = setup_probes(argv, inputs_path)
    runner = runner_factory(args, inputs)()
    try:
        outcome = workloads.run_untraced(runner, args.seconds)
    finally:
        runner.close()
    passes = outcome.passes
    metrics = {
        "setup_s": statistics.median(p["import_s"] + p["build_s"] for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report.update(
        setup_import_s=[p["import_s"] for p in probes],
        setup_build_s=[p["build_s"] for p in probes],
        pass_seconds=[p.seconds for p in passes],
    )
    if passes:
        # Quoted at the 90th-percentile pass time; the service makes one pass.
        per_base, _ = percentile([p.seconds / p.bases for p in passes], SUSTAINED_PERCENTILE)
        metrics["aligned_bases_per_s"] = 1.0 / per_base
        pooled = [t for p in passes for t in p.latencies]
        for q in (50, 90, 99):
            report[f"req_p{q}_ms"] = percentile(pooled, q)[0] * 1e3
        report["latency_samples"] = len(pooled)
        report["median_bases_per_s"] = statistics.median(p.bases / p.seconds for p in passes)
        beyond = percentile(pooled, 99)[1]
        if beyond < 10:
            outcome.invalid.append(
                f"p99 has {beyond} samples beyond it from {len(pooled)} (needs 10)"
            )
        for done in passes:
            report.update(done.details)
    return metrics, outcome


def traced_run(args, inputs, report: dict, src: str):
    import traced
    from ledger import Ledger
    from repro.telemetry.exporters import write_chrome_trace

    ledger = Ledger(inputs.config)
    metrics, exact, outcome, runner = traced.trace(
        runner_factory(args, inputs), args.seconds, ledger
    )
    if metrics:
        metrics["core.serial_bases_per_s"] = inputs.pattern_bases / inputs.serial_seconds
        check_counts(args, src, runner.count_scope, {n: metrics[n] for n in exact}, outcome)

    if args.workload == "long_pacbio":
        try:
            got = traced.baseline_counts()
        except Exception as error:
            traceback.print_exc()
            got = f"the baseline pass raised {error!r}"
        report["baseline_counts"] = got
        if got != traced.BASELINE_COUNTS:
            outcome.invalid.append(
                f"baseline counts {got} differ from {traced.BASELINE_COUNTS}"
            )

    trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
    write_chrome_trace(trace_path, ledger.records, process_names=ledger.tracer.process_names)
    report.update(chrome_trace=str(trace_path.relative_to(ROOT)), spans=len(ledger.records))
    return metrics, outcome


def check_counts(args, src: str, scope: str, counts: dict, outcome) -> None:
    """Exact counts must also repeat across runs of one seed, program and scope.

    ``scope`` is what else the counts depend on: the number of requests a
    service run sends, which follows from ``--seconds`` and the rate.
    """
    # The inputs are made by this benchmark's own code, so it is part of the key.
    key = {"src_fingerprint": src, "bench_fingerprint": source_fingerprint(HERE), "scope": scope}
    ledger_file = OUT / f"counts-{args.workload}-{args.seed}.json"
    if ledger_file.exists():
        previous = json.loads(ledger_file.read_text())
        if previous.get("key") == key and previous["counts"] != counts:
            drift = {
                n: [previous["counts"].get(n), v]
                for n, v in counts.items()
                if previous["counts"].get(n) != v
            }
            outcome.invalid.append(f"counts drifted from the previous run: {drift}")
    ledger_file.write_text(json.dumps({"key": key, "counts": counts}))


def generate_inputs(argv, workload: str, seed: int):
    """Build inputs (and serial answers) in a child process, off our RSS.

    The child is this script with ``--generate PATH``; it pickles the
    :class:`workloads.Inputs` to ``PATH`` inside the output directory.
    Returns the inputs and the path, which the set-up probes load.
    """
    path = OUT / f"{workload}-{seed}.inputs.pickle"
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv, "--generate", str(path)],
        check=True,
        timeout=150,
    )
    with open(path, "rb") as handle:
        return pickle.load(handle), path


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file():
        return fail(f"no program sources under {SRC.relative_to(ROOT)}/repro")
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    if args.workload == "service_open" and not args.service_rate:
        return fail("service_open needs --service-rate (BENCHMARK.json's command sets it)")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    from workloads import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.generate:
        with open(args.generate, "wb") as handle:
            pickle.dump(generate(args.workload, args.seed, str(OUT)), handle)
        return 0

    try:
        return measure(argv, args, spec)
    finally:
        # Per-run files (inputs, FASTQ, SAM); traces and count ledgers stay.
        for path in OUT.glob(f"{args.workload}-{args.seed}.*"):
            path.unlink()


#: The end-to-end metrics of a ``--trace 0`` run, with their units.
END_TO_END_UNITS = {
    "aligned_bases_per_s": "bases/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def measure(argv, args, spec) -> int:
    from ledger import PER_LAYER_UNITS
    from workloads import WORKLOADS, Outcome

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if units != (PER_LAYER_UNITS if args.trace else END_TO_END_UNITS):
        return fail("the benchmark's metrics differ from those BENCHMARK.json declares")

    src = source_fingerprint()
    detail: dict = {}
    metrics: dict = {}
    try:
        inputs, inputs_path = generate_inputs(argv, args.workload, args.seed)
        report = provenance(args, inputs, WORKLOADS[args.workload], src)
        print("perfbench provenance " + json.dumps(report, sort_keys=True), flush=True)
        if args.trace:
            metrics, outcome = traced_run(args, inputs, detail, src)
        else:
            metrics, outcome = end_to_end(args, argv, inputs, inputs_path, detail)
    except Exception as error:  # the program raised outside a measured pass
        traceback.print_exc()
        outcome = Outcome(attempted=1, failed=1)
        outcome.invalid.append(f"{type(error).__name__}: {error}")
    metrics = {name: value for name, value in metrics.items() if math.isfinite(value)}
    missing = sorted(set(units) - set(metrics))
    if missing:
        outcome.invalid.append(f"no value for {missing}")
    detail.update(
        attempted=outcome.attempted,
        failed=outcome.failed,
        failed_frac=outcome.failed / max(1, outcome.attempted),
        invalid=outcome.invalid,
    )

    print("perfbench detail " + json.dumps(detail, sort_keys=True))
    for name in units:
        print(f"  {name:28s} {metrics.get(name, float('nan')):>16.6g} {units[name]}")
    for reason in outcome.invalid:
        print(f"perfbench: invalid run: {reason}", file=sys.stderr)
    correct = outcome.failed == 0 and not outcome.invalid
    result = {
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
            if name in metrics
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
