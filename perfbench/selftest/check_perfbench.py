"""Self-tests of the benchmark (not of the program).

Run from the root of the repository::

    python3 -m pytest -q perfbench/selftest/check_perfbench.py

The file name keeps these tests out of a plain ``pytest`` run of the
repository: the smoke runs start servers and process pools and take
about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--size", "smoke",
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=180,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    *_, record_line, result_line = completed.stdout.strip().splitlines()
    assert record_line.startswith("perfbench ")
    return json.loads(result_line), json.loads(record_line[len("perfbench "):])


@pytest.mark.parametrize("workload", ["report", "analyze-logs", "matrix", "service"])
def test_smoke_run(workload):
    result, record = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "cold_ref", "warm_ref", "rate_per_ref", "peak_rss_mb"}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert record["host"]["cores"] >= 1 and record["host"]["python"]
    assert record["inputs"]


@pytest.mark.parametrize("workload", ["matrix", "service"])
def test_traced_smoke_run(workload):
    result, record = _run(workload, trace=1)
    assert result["correct"], record["failures"]
    assert set(result["metrics"]) == set(layers.PER_LAYER_UNITS)
    if workload == "matrix":
        # Spans recorded in forked pool workers reach the parent.
        assert result["metrics"]["scenarios.run_cell_s"]["value"] > 0
        assert result["metrics"]["deterrence.gateway_s"]["value"] > 0
    else:
        assert result["metrics"]["service.router_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report", "--seconds", "1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans():
    clock = _Clock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 0.5
        traced_leaf()

    def outer():
        clock.now += 3.0
        traced_middle()
        clock.now += 4.0

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    assert tracer.self_s == {"leaf": 4.0, "middle": 1.5, "outer": 7.0}
    assert tracer.total_s["outer"] == 12.5
    assert tracer.calls == {"leaf": 2, "middle": 1, "outer": 1}
    reference = self_times(
        [
            ("outer", 0.0, 12.5, None),
            ("middle", 3.0, 8.5, "outer"),
            ("leaf", 4.0, 6.0, "middle"),
            ("leaf", 6.5, 8.5, "middle"),
        ]
    )
    assert reference == dict(tracer.self_s)


def test_generator_spans_exclude_the_consumer():
    clock = _Clock()
    tracer = Tracer(clock=clock)

    def produce():
        for item in range(3):
            clock.now += 1.0
            yield item

    consumed = []
    for item in tracer.wrap("decode", produce)():
        clock.now += 10.0
        consumed.append(item)
    assert consumed == [0, 1, 2]
    assert tracer.self_s["decode"] == 3.0
    assert tracer.counts["decode.passes"] == 1


def _patched_names() -> dict:
    """Every attribute the traced run may replace, by identity."""
    import repro.analysis.overview as overview
    import repro.bots.agent as agent
    import repro.logs.io as logs_io
    import repro.logs.preprocess as preprocess
    import repro.pipeline.stages as stages
    import repro.reporting.experiments as experiments
    import repro.robots.fetchstate as fetchstate
    import repro.scenarios.matrix as matrix
    from repro.asn.whois import WhoisClient
    from repro.bots.agent import BotAgent
    from repro.deterrence.gateway import DeterrenceGateway
    from repro.logs.preprocess import Preprocessor
    from repro.pipeline.store import ArtifactStore
    from repro.robots.compiled import CompiledPolicy
    from repro.service.router import ServiceRouter
    from repro.simulation.noise import NoiseModel
    from repro.uaparse.registry import BotRegistry
    from repro.web.server import WebServer

    owners = [
        overview, agent, logs_io, preprocess, stages, fetchstate, matrix,
        WhoisClient, BotAgent, DeterrenceGateway, Preprocessor, ArtifactStore,
        CompiledPolicy, ServiceRouter, NoiseModel, BotRegistry, WebServer,
    ]
    names = {(owner.__name__, key): value for owner in owners for key, value in vars(owner).items()}
    names.update({("EXPERIMENTS", key): value for key, value in experiments.EXPERIMENTS.items()})
    return names


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from repro.analysis import overview

    before = _patched_names()
    seen = {}

    def step(index, tracer, pause):
        seen[index] = overview.sessionize is before[("repro.analysis.overview", "sessionize")]
        overview.sessionize([])
        return workloads.Iteration(cold_s=1.0, warm_s=1.0, items=1, checks=[])

    outcome = workloads.run_iterations(step, seconds=0, trace=True, work=str(tmp_path))
    # Untraced iterations see the program's own functions, traced ones
    # see wrappers, and afterwards nothing of the wrappers is left.
    assert seen == {0: True, 1: False, 2: True, 3: False}
    assert outcome.layer_rows[0]["logs.sessionize_calls"] == 1
    after = _patched_names()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_output_check_catches_a_perturbed_digest(monkeypatch):
    step = workloads.report_step(seed=5, sizes=workloads.SIZES["smoke"])
    first = step(0, None, lambda: None)
    assert all(ok for _, ok in first.checks)

    original = workloads.digest
    monkeypatch.setattr(workloads, "digest", lambda text: original(text + "perturbed"))
    second = step(1, None, lambda: None)
    failed = [name for name, ok in second.checks if not ok]
    assert failed == ["report digest identical across runs"]

    outcome = workloads.Outcome()
    for name, ok in second.checks:
        outcome.check(name, ok)
    assert outcome.failed == 1 and outcome.attempted == len(second.checks)


def test_times_in_reference_units():
    assert reference.kernel() == reference.CHECKSUM
    with reference.Meter() as meter:
        meter.sample()
    assert meter.samples[0] > 0
    assert meter._worker.returncode == 0
    # The median time over the mean sample.
    assert reference.in_units([5.0, 4.0, 100.0], [1.0, 3.0, 2.0]) == 2.5
    assert reference.at_nominal_s([5.0], [2.0]) == 2.5 * reference.NOMINAL_S
    assert reference.in_units([], [1.0]) is None
