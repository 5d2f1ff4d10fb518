"""Benchmark harness: run one workload of the program and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload report --seed 2025 --seconds 18 --trace 0

Workloads: ``report``, ``analyze-logs``, ``matrix``, ``service`` (see
``perfbench/README.md``).  The harness itself imports nothing from the
program.  Each measurement runs in fresh processes started from
``program.py``: ``setup_s`` is the median of several set-ups, and the
timed iterations run in one process of their own, so ``peak_rss_mb``
belongs to the workload alone.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones from the traced run.  The line before it records
the inputs, the host and any failed checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import layers
import reference

WORKLOADS = ("report", "analyze-logs", "matrix", "service")
#: ``ref`` is the mean time of the run's reference (``reference.py``),
#: taken next to the timed passes.
END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_ref": "ref",
    "warm_ref": "ref",
    "rate_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 3
#: Everything, set-up and clean-up included, ends within this budget.
RUN_BUDGET_S = 170.0

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM = HERE / "program.py"


class ChildFailed(Exception):
    """A program process timed out or exited without its result."""


def host_fingerprint() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
    }


def cpu_ticks() -> list[int] | None:
    """The host's aggregate CPU tick counters (Linux), or ``None``."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_ticks` readings (the 8th counter is ``steal``)."""
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def _stop_group(process: subprocess.Popen) -> None:
    """Kill whatever the child left behind in its process group and
    wait until the group is gone."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    give_up = time.monotonic() + 5.0
    while time.monotonic() < give_up:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(args: list[str], env: dict, timeout: float) -> str:
    """Run ``program.py args`` in its own process group; its stdout."""
    if timeout <= 0:
        raise ChildFailed(f"no time left for {args[0]}")
    process = subprocess.Popen(
        [sys.executable, str(PROGRAM), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        start_new_session=True,
        text=True,
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{args[0]} exceeded its {timeout:.0f} s deadline") from None
    finally:
        _stop_group(process)
    if process.returncode != 0:
        raise ChildFailed(f"{args[0]} exited with code {process.returncode}")
    return stdout


def measure(args: argparse.Namespace, env: dict, work: Path, deadline: float) -> tuple[dict, dict]:
    """The program's own report plus the harness-side set-up samples."""

    def remaining() -> float:
        return deadline - time.monotonic()

    extra: dict = {}
    if args.workload != "service":
        # Kernel samples before and after the set-ups, with those of the
        # run, put setup_s at the kernel's nominal host speed (see
        # reference.py).
        samples = []
        with reference.Meter() as meter:
            meter.sample()
            for _ in range(SETUP_SAMPLES):
                started = time.perf_counter()
                out = run_child(["setup", "--workload", args.workload], env, remaining())
                if out.strip() != "ready":
                    raise ChildFailed("setup did not report ready")
                samples.append(time.perf_counter() - started)
            meter.sample()
        extra["setup_samples_s"] = samples
        extra["setup_reference_s"] = meter.samples
    run_args = [
        "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--work", str(work),
    ]
    if args.workload == "analyze-logs":
        corpus = work / "corpus.jsonl"
        run_child(
            ["corpus", "--seed", str(args.seed), "--size", args.size, "--out", str(corpus)],
            env,
            remaining(),
        )
        with open(f"{corpus}.json", encoding="utf-8") as handle:
            extra["corpus"] = json.load(handle)
        run_args += ["--corpus", str(corpus), "--corpus-info", f"{corpus}.json"]
    lines = run_child(run_args, env, remaining()).strip().splitlines()
    if not lines:
        raise ChildFailed("run printed no result")
    return json.loads(lines[-1]), extra


def build_result(report: dict, extra: dict, trace: int) -> tuple[dict, dict]:
    outcome = report["outcome"]
    attempted = max(1, outcome["attempted"])
    failed = outcome["failed"]
    values = dict(report["metrics"])
    if "setup_samples_s" in extra:
        values["setup_s"] = reference.at_nominal_s(
            extra["setup_samples_s"], extra["setup_reference_s"] + outcome["reference_s"]
        )
    if trace:
        units = layers.PER_LAYER_UNITS
        values = report["per_layer"]
    else:
        units = END_TO_END_UNITS
    metrics = {}
    missing = []
    for name, unit in units.items():
        value = values.get(name)
        if value is None or (not trace and not value > 0):
            missing.append(name)
            continue
        metrics[name] = {"value": value, "unit": unit}
    if missing:
        failed += 1
        attempted += 1
        outcome["failures"].append(f"metrics not measured: {', '.join(missing)}")
    inputs = dict(extra.get("corpus", {}))
    inputs.update(outcome["inputs"])
    record = {
        "inputs": inputs,
        "failures": outcome["failures"],
        "medians_s": report["seconds"],
        "setup_samples_s": extra.get("setup_samples_s", outcome["inputs"].get("setup_samples_s")),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="smoke: tiny inputs, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Every process of the run inherits one CPU from here.  The CPUs of
    # a shared virtual machine speed up and slow down independently, so
    # the reference measures the program's CPU only if both stay on it;
    # and a service server that lands on the generator's CPU or the
    # other one runs its passes a fifth apart.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    started = time.monotonic()
    ticks = cpu_ticks()
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    try:
        report, extra = measure(args, env, work, started + RUN_BUDGET_S)
    except ChildFailed as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    result, record = build_result(report, extra, args.trace)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "host": host_fingerprint(),
        # Time stolen by other guests slows every metric of the run.
        "host_steal_share": steal_share(ticks, cpu_ticks()),
        "elapsed_s": time.monotonic() - started,
        **record,
    }
    print("perfbench " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
