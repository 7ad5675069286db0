#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of the ``repro`` package.

Run from the repository root::

    python3 perfbench/run.py --workload paper-figures --seed 20020818 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time (median of fresh processes), then timed passes of the workload until
``--seconds`` have elapsed (at least two), peak RSS after the first pass,
and the correctness checks outside the timed region.  ``--trace 1`` runs
the same untraced passes, then one traced pass, and reports the per-layer
metrics.  ``--workload all`` runs every workload in its own process and
prints one table.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Run details (load,
machine fingerprint, pass times and, when traced, every span) are written
to ``.perfbench-out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("paper-figures", "cache-scale", "serve-days")
DEFAULT_SEED = 20020818
#: Fresh processes timed per run for ``setup_s`` (their median is reported).
SETUP_SAMPLES = 5
#: Timed passes per run, at the least, however long ``--seconds`` is.
MIN_PASSES = 2
#: Seconds a set-up probe process may take before the run is abandoned.
SETUP_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run small instances of the workloads (for tests)",
    )
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


# ----------------------------------------------------------------------
def setup_probe(args) -> int:
    """Child side of ``setup_s``: import, build the workload, say ready."""
    from perfbench.workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    print("ready", flush=True)
    return 0


def time_setup(args) -> float:
    """Seconds from starting a fresh process until its first pass could
    begin (interpreter start, ``import repro``, workload configs)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--smoke"] if args.smoke else [])
    start = time.perf_counter()
    with subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit code {code})")
    return elapsed


# ----------------------------------------------------------------------
def run_passes(workload, seconds: float):
    """Timed passes until *seconds* have elapsed (at least MIN_PASSES).

    Each pass starts from an empty simulator memo, as a fresh run does,
    with the host probe timed just before it.  Only the first pass keeps
    its payload for the checks; peak RSS is read right after it, so it is
    the peak of a process that ran the workload once.
    """
    from perfbench.host import host_probe, peak_rss_mib
    from perfbench.workloads import clear_simulator_memo

    walls, probes, outputs = [], [], []
    rss = None
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        probes.append(host_probe())
        clear_simulator_memo()
        began = time.perf_counter()
        output = workload.run_pass()
        walls.append(time.perf_counter() - began)
        if rss is None:
            rss = peak_rss_mib()
        else:
            output.payload = None
        outputs.append(output)
    return walls, probes, outputs, rss


def traced_pass(workload):
    """One pass with every layer call wrapped in a span."""
    from perfbench.host import host_probe
    from perfbench.tracing import ROOT as ROOT_SPAN
    from perfbench.tracing import Tracer, instrument, layer_metrics
    from perfbench.workloads import clear_simulator_memo

    probe = host_probe()
    clear_simulator_memo()
    tracer = Tracer()
    with instrument(tracer):
        with tracer.span(ROOT_SPAN) as root:
            output = workload.run_pass()
    output.payload = None
    return output, probe, tracer, layer_metrics(tracer, root)


def measure(args) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, run details)."""
    from perfbench.host import fingerprint
    from perfbench.metrics import END_TO_END, ENGINE_NAMES, PER_LAYER, units
    from perfbench.workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    setup_samples = (
        [] if args.trace else [time_setup(args) for _ in range(SETUP_SAMPLES)]
    )
    workload = workload_cls(args.seed, smoke=args.smoke)
    # Warm-up on the small instance: lazy imports and first-call costs are
    # paid here, not by the first timed pass (set-up time covers imports).
    workload_cls(args.seed, smoke=True).run_pass()

    walls, probes, outputs, rss = run_passes(workload, args.seconds)
    wall = statistics.median(walls)
    first = outputs[0]
    values: dict[str, float] = {}
    tracer = None
    if args.trace:
        output, probe, tracer, layers = traced_pass(workload)
        outputs.append(output)
        probes.append(probe)
        values.update(layers)
        values["trace.overhead_s"] = layers["trace.wall_s"] - wall
        values["host.probe_s"] = statistics.median(probes)

    tally = workload.check(outputs)
    if args.trace:
        for engine in ENGINE_NAMES:
            values[f"cluster_sim.engine.{engine}_s"] = float(
                tally.engine_seconds.get(engine, 0.0)
            )
        specs = PER_LAYER
    else:
        values.update(
            wall_s=wall,
            requests_per_s=first.requests / wall,
            setup_s=statistics.median(setup_samples),
            peak_rss_mb=rss,
            checks_passed_share=(tally.attempted - tally.failed)
            / tally.attempted,
        )
        specs = END_TO_END
    unit = units(specs)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit[name]} for name in unit
        },
    }
    details = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "digest": first.digest,
        "requests": first.requests,
        "rejection_rate": first.rejection_rate,
        "load": first.load,
        "passes_wall_s": walls,
        "host_probe_s": probes,
        "setup_samples_s": setup_samples,
        "check_failures": tally.messages,
        "machine": fingerprint(ROOT),
    }
    if tracer is not None:
        details["spans"] = tracer.to_json()
    return result, details


def write_details(details: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (
        f"{details['workload']}-seed{details['seed']}-trace{details['trace']}"
        f"{'-smoke' if details['smoke'] else ''}.json"
    )
    path.write_text(json.dumps(details, indent=1))
    return path


def report(result: dict, details: dict) -> None:
    """Human-readable lines before the result line."""
    summary = {k: v for k, v in details.items() if k != "spans"}
    print(f"workload {details['workload']}  seed {details['seed']}")
    print(f"digest {details['digest']}")
    print(f"context {json.dumps(summary, sort_keys=True)}")
    for message in details["check_failures"]:
        print(f"CHECK FAILED: {message}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")


# ----------------------------------------------------------------------
def run_all(args) -> int:
    """Every workload in its own fresh process, then one summary table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        line = json.loads(lines[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    result, details = measure(args)
    report(result, details)
    write_details(details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
