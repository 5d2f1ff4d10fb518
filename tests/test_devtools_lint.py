"""Tests for the repro.devtools.lint invariant checker.

Every rule gets a firing (bad fixture) and a quiet (good fixture)
test, plus suppression-comment and baseline round-trip coverage and an
integration check that the real repository lints clean.
"""

from __future__ import annotations

import json
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import all_rules, run_lint
from repro.devtools.lint.cli import main as lint_main
from repro.exceptions import LintConfigError

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_project(tmp_path: Path, files: dict[str, str]) -> None:
    (tmp_path / "src" / "repro").mkdir(parents=True, exist_ok=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def lint(tmp_path: Path, files: dict[str, str], select=None, **kwargs):
    write_project(tmp_path, files)
    return run_lint(
        [tmp_path / "src"], root=tmp_path, select=select, **kwargs
    )


def codes(result) -> list[str]:
    return [finding.code for finding in result.findings]


class TestFramework:
    def test_at_least_eight_rules_registered(self):
        assert len(all_rules()) >= 8

    def test_rule_codes_are_unique_and_stable(self):
        rule_codes = [rule.code for rule in all_rules()]
        assert len(rule_codes) == len(set(rule_codes))
        assert all(code.startswith("RPR") for code in rule_codes)

    def test_parse_error_reported_not_raised(self, tmp_path):
        result = lint(tmp_path, {"src/repro/broken.py": "def f(:\n"})
        assert "RPR000" in codes(result)

    def test_unknown_select_code_raises(self, tmp_path):
        with pytest.raises(LintConfigError):
            lint(tmp_path, {}, select=["RPR999"])

    def test_missing_path_raises_not_silently_clean(self, tmp_path):
        # A typo'd path in CI must fail loudly, not lint 0 files green.
        with pytest.raises(LintConfigError):
            run_lint([tmp_path / "nope"], root=tmp_path)


GOOD_STAGE = """
    from functools import partial

    from repro.pipeline.stage import FunctionStage


    def helper(records):
        return sorted(records)


    def run(context, flag=True):
        return helper(context.params["records"])


    STAGE = FunctionStage("sorted", partial(run, flag=False))
"""


class TestStageDeterminismRPR001:
    def test_fires_on_clock_read_in_reachable_helper(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/stages.py": """
                import time
                from functools import partial

                from repro.pipeline.stage import FunctionStage


                def helper():
                    return time.time()


                def run(context, flag=True):
                    return helper()


                STAGE = FunctionStage("clocked", partial(run, flag=False))
                """
            },
            select=["RPR001"],
        )
        assert codes(result) == ["RPR001"]
        finding = result.findings[0]
        assert "time.time" in finding.message
        assert "clocked" in finding.message  # names the stage

    def test_fires_via_instance_method_indirection(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/stages.py": """
                import random

                from repro.pipeline.stage import FunctionStage


                class Enricher:
                    def enrich(self, records):
                        random.shuffle(records)
                        return records


                def run(context):
                    enricher = Enricher()
                    return enricher.enrich([])


                STAGE = FunctionStage("enrich", run)
                """
            },
            select=["RPR001"],
        )
        assert codes(result) == ["RPR001"]
        assert "random.shuffle" in result.findings[0].message

    def test_quiet_on_deterministic_stage(self, tmp_path):
        result = lint(
            tmp_path, {"src/repro/stages.py": GOOD_STAGE}, select=["RPR001"]
        )
        assert result.ok

    def test_quiet_when_clock_is_unreachable(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/stages.py": GOOD_STAGE,
                "src/repro/bench.py": """
                import time


                def timer():
                    return time.time()
                """,
            },
            select=["RPR001"],
        )
        assert result.ok


class TestStageEnvironRPR002:
    def test_fires_on_environ_read(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/stages.py": """
                import os

                from repro.pipeline.stage import FunctionStage


                def run(context):
                    return os.environ.get("REPRO_MODE")


                STAGE = FunctionStage("env", run)
                """
            },
            select=["RPR002"],
        )
        assert codes(result) == ["RPR002"]

    def test_quiet_on_environ_outside_stages(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/stages.py": GOOD_STAGE,
                "src/repro/config.py": """
                import os


                def from_env():
                    return os.environ.get("REPRO_MODE")
                """,
            },
            select=["RPR002"],
        )
        assert result.ok


class TestShardMutationRPR003:
    def test_fires_on_module_global_mutation_in_worker(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/shards.py": """
                from repro.pipeline.stage import ShardStage

                TOTALS: dict[str, int] = {}


                def worker(records):
                    TOTALS["seen"] = len(records)
                    return records


                def merge(outputs, context):
                    return outputs


                STAGE = ShardStage("preprocess", worker=worker, merge=merge)
                """
            },
            select=["RPR003"],
        )
        assert codes(result) == ["RPR003"]
        assert "TOTALS" in result.findings[0].message

    def test_fires_on_global_declaration(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/shards.py": """
                from repro.pipeline.stage import ShardStage

                COUNT = 0


                def worker(records):
                    global COUNT
                    COUNT += 1
                    return records


                def merge(outputs, context):
                    return outputs


                STAGE = ShardStage("preprocess", worker=worker, merge=merge)
                """
            },
            select=["RPR003"],
        )
        assert "RPR003" in codes(result)

    def test_quiet_on_pure_worker(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/shards.py": """
                from repro.pipeline.stage import ShardStage

                MARKERS = ("/wp-admin",)


                def worker(records):
                    totals = {}
                    totals["seen"] = len(records)
                    return [r for r in records if r not in MARKERS]


                def merge(outputs, context):
                    merged = []
                    for output in outputs:
                        merged.extend(output)
                    return merged


                STAGE = ShardStage("preprocess", worker=worker, merge=merge)
                """
            },
            select=["RPR003"],
        )
        assert result.ok

    def test_quiet_on_mutation_outside_worker_path(self, tmp_path):
        # FunctionStage (in-process) code may maintain module caches.
        result = lint(
            tmp_path,
            {
                "src/repro/stages.py": """
                from repro.pipeline.stage import FunctionStage

                CACHE: dict[str, object] = {}


                def run(context):
                    CACHE["last"] = context
                    return context


                STAGE = FunctionStage("cached", run)
                """
            },
            select=["RPR003"],
        )
        assert result.ok


class TestStageCallablesRPR004:
    def test_fires_on_lambda_stage(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/stages.py": """
                from repro.pipeline.stage import FunctionStage

                STAGE = FunctionStage("quick", lambda context: context)
                """
            },
            select=["RPR004"],
        )
        assert codes(result) == ["RPR004"]
        assert "lambda" in result.findings[0].message

    def test_fires_on_closure_worker(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/shards.py": """
                from repro.pipeline.stage import ShardStage


                def build(tag):
                    def worker(records):
                        return [tag, records]

                    def merge(outputs, context):
                        return outputs

                    return ShardStage("tagged", worker=worker, merge=merge)
                """
            },
            select=["RPR004"],
        )
        assert "RPR004" in codes(result)

    def test_quiet_on_module_level_callables(self, tmp_path):
        result = lint(
            tmp_path, {"src/repro/stages.py": GOOD_STAGE}, select=["RPR004"]
        )
        assert result.ok


class TestSchemaDriftRPR005:
    def test_fires_on_unknown_column_accessor(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/reduce.py": """
                def traffic(batch):
                    return sum(batch.column("sitenames"))
                """
            },
            select=["RPR005"],
        )
        assert codes(result) == ["RPR005"]
        assert "sitenames" in result.findings[0].message

    def test_fires_on_unknown_column_values_name(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/metric.py": """
                def checked(records):
                    return any(_column_values(records, "asn", "uri_pth"))
                """
            },
            select=["RPR005"],
        )
        assert codes(result) == ["RPR005"]
        assert "uri_pth" in result.findings[0].message

    def test_fires_on_unknown_fieldnames_entry(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/writer.py": """
                import csv


                def write(handle):
                    return csv.DictWriter(
                        handle, fieldnames=["useragent", "bytes_sent"]
                    )
                """
            },
            select=["RPR005"],
        )
        # "bytes_sent" is the attribute name; the serialized column is
        # "bytes" — exactly the drift this rule exists to catch.
        assert codes(result) == ["RPR005"]

    def test_quiet_on_registry_columns(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/reduce.py": """
                def traffic(batch):
                    sites = batch.column("sitename")
                    sizes = batch.column("bytes")
                    return list(zip(sites, sizes))
                """
            },
            select=["RPR005"],
        )
        assert result.ok

    def test_quiet_on_integer_indexes(self, tmp_path):
        # pyarrow's RecordBatch.column(int) must not be flagged.
        result = lint(
            tmp_path,
            {
                "src/repro/arrow.py": """
                def first(arrow_batch):
                    return arrow_batch.column(0)
                """
            },
            select=["RPR005"],
        )
        assert result.ok


class TestOptionalDepsRPR006:
    def test_fires_on_unguarded_pyarrow_import(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/fastpath.py": """
                import pyarrow as pa


                def schema():
                    return pa.schema([])
                """
            },
            select=["RPR006"],
        )
        assert codes(result) == ["RPR006"]
        assert "unguarded" in result.findings[0].message

    def test_fires_on_guard_without_degrade_path(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/fastpath.py": """
                try:
                    import pyarrow as pa
                except ModuleNotFoundError:
                    pa = None
                """
            },
            select=["RPR006"],
        )
        assert codes(result) == ["RPR006"]
        assert "MissingDependencyError" in result.findings[0].message

    def test_quiet_on_guarded_import_with_degrade(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/fastpath.py": """
                from repro.exceptions import MissingDependencyError

                try:
                    import pyarrow as pa
                except ModuleNotFoundError:
                    pa = None


                def require():
                    if pa is None:
                        raise MissingDependencyError("install [parquet]")
                """
            },
            select=["RPR006"],
        )
        assert result.ok


class TestExceptionTaxonomyRPR007:
    def test_fires_on_builtin_raise(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/api.py": """
                def lookup(name):
                    if not name:
                        raise ValueError("name required")
                    return name
                """
            },
            select=["RPR007"],
        )
        assert codes(result) == ["RPR007"]

    def test_quiet_in_validators_and_constructors(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/api.py": """
                class Knob:
                    def __init__(self, value):
                        if value < 0:
                            raise ValueError("value must be >= 0")
                        self.value = value


                def validate_token(token):
                    if not token:
                        raise ValueError("empty token")
                """
            },
            select=["RPR007"],
        )
        assert result.ok

    def test_quiet_on_taxonomy_raise(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/api.py": """
                from repro.exceptions import ConfigError


                def lookup(name):
                    if not name:
                        raise ConfigError("name required")
                    return name
                """
            },
            select=["RPR007"],
        )
        assert result.ok


class TestUnseededRngRPR008:
    def test_fires_on_unseeded_default_rng(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/sim.py": """
                import numpy as np


                def make_rng():
                    return np.random.default_rng()
                """
            },
            select=["RPR008"],
        )
        assert codes(result) == ["RPR008"]

    def test_fires_on_global_rng_function(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/sim.py": """
                import random


                def jitter():
                    return random.random()
                """
            },
            select=["RPR008"],
        )
        assert codes(result) == ["RPR008"]

    def test_quiet_on_seeded_constructions(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/sim.py": """
                import random

                import numpy as np


                def make_rngs(seed):
                    return np.random.default_rng(seed), random.Random(seed)
                """
            },
            select=["RPR008"],
        )
        assert result.ok


class TestTrackedArtifactsRPR009:
    def _git(self, cwd, *args):
        return subprocess.run(
            ["git", "-C", str(cwd), *args],
            capture_output=True,
            text=True,
            check=True,
        )

    def test_fires_on_tracked_bytecode(self, tmp_path):
        write_project(tmp_path, {"src/repro/mod.py": "X = 1\n"})
        cache = tmp_path / "src" / "repro" / "__pycache__"
        cache.mkdir()
        (cache / "mod.cpython-311.pyc").write_bytes(b"\x00")
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", "-f", ".")
        result = run_lint(
            [tmp_path / "src"], root=tmp_path, select=["RPR009"]
        )
        assert codes(result) == ["RPR009"]
        assert "__pycache__" in result.findings[0].path

    def test_quiet_on_clean_tree(self, tmp_path):
        write_project(tmp_path, {"src/repro/mod.py": "X = 1\n"})
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", ".")
        result = run_lint(
            [tmp_path / "src"], root=tmp_path, select=["RPR009"]
        )
        assert result.ok

    def test_quiet_outside_git(self, tmp_path):
        result = lint(
            tmp_path, {"src/repro/mod.py": "X = 1\n"}, select=["RPR009"]
        )
        assert result.ok


class TestSuppressions:
    def test_inline_suppression_silences_finding(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/sim.py": """
                import numpy as np


                def make_rng():
                    return np.random.default_rng()  # lint: ignore[RPR008]
                """
            },
            select=["RPR008"],
        )
        assert result.ok
        assert result.suppressed == 1

    def test_suppression_is_code_specific(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/sim.py": """
                import numpy as np


                def make_rng():
                    return np.random.default_rng()  # lint: ignore[RPR001]
                """
            },
            select=["RPR008"],
        )
        assert codes(result) == ["RPR008"]

    def test_bare_suppression_silences_all_codes(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/sim.py": """
                import numpy as np


                def make_rng():
                    return np.random.default_rng()  # lint: ignore
                """
            },
            select=["RPR008"],
        )
        assert result.ok


class TestBaseline:
    BAD = {
        "src/repro/sim.py": """
        import numpy as np


        def make_rng():
            return np.random.default_rng()
        """
    }

    def test_round_trip(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        written = lint(
            tmp_path,
            self.BAD,
            select=["RPR008"],
            baseline_path=baseline,
            update_baseline=True,
        )
        assert written.baselined == 1
        payload = json.loads(baseline.read_text())
        assert payload["version"] == 1
        assert len(payload["findings"]) == 1

        rerun = run_lint(
            [tmp_path / "src"],
            root=tmp_path,
            select=["RPR008"],
            baseline_path=baseline,
        )
        assert rerun.ok
        assert rerun.baselined == 1

    def test_new_findings_still_fail(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        lint(
            tmp_path,
            self.BAD,
            select=["RPR008"],
            baseline_path=baseline,
            update_baseline=True,
        )
        # A second copy of the grandfathered violation is a regression.
        (tmp_path / "src" / "repro" / "sim2.py").write_text(
            "import numpy as np\n\n\ndef rng():\n"
            "    return np.random.default_rng()\n"
        )
        rerun = run_lint(
            [tmp_path / "src"],
            root=tmp_path,
            select=["RPR008"],
            baseline_path=baseline,
        )
        assert len(rerun.findings) == 1
        assert rerun.baselined == 1

    def test_malformed_baseline_raises(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{not json")
        with pytest.raises(LintConfigError):
            lint(tmp_path, self.BAD, baseline_path=baseline)


class TestCli:
    def test_exit_zero_on_clean(self, tmp_path, capsys):
        write_project(tmp_path, {"src/repro/mod.py": "X = 1\n"})
        code = lint_main(
            [str(tmp_path / "src"), "--root", str(tmp_path), "--select", "RPR008"]
        )
        assert code == 0

    def test_exit_one_on_findings_text_and_json(self, tmp_path, capsys):
        write_project(
            tmp_path,
            {
                "src/repro/sim.py": (
                    "import numpy as np\n\n\ndef rng():\n"
                    "    return np.random.default_rng()\n"
                )
            },
        )
        code = lint_main(
            [str(tmp_path / "src"), "--root", str(tmp_path), "--select", "RPR008"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "RPR008" in out

        code = lint_main(
            [
                str(tmp_path / "src"),
                "--root",
                str(tmp_path),
                "--select",
                "RPR008",
                "--format",
                "json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["code"] == "RPR008"

    def test_exit_two_on_bad_select(self, tmp_path):
        assert lint_main([str(tmp_path), "--select", "NOPE"]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RPR001" in out and "RPR009" in out


BAD_SPOOL = """
    import json


    def write_lease(path, data):
        with open(path, "w") as handle:
            json.dump(data, handle)


    def publish_result(path, blob):
        path.write_bytes(blob)
"""

GOOD_SPOOL = """
    import json

    from repro.pipeline.store import atomic_write_bytes


    def write_lease(path, data):
        atomic_write_bytes(path, json.dumps(data).encode("utf-8"))


    def read_lease(path):
        with open(path) as handle:
            return json.load(handle)
"""


class TestSpoolHygieneRPR010:
    def test_fires_on_direct_spool_writes(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/distributed/__init__.py": "",
                "src/repro/distributed/queue.py": BAD_SPOOL,
            },
            select=["RPR010"],
        )
        assert codes(result) == ["RPR010", "RPR010"]
        messages = " ".join(f.message for f in result.findings)
        assert "atomic_write_bytes" in messages

    def test_quiet_on_atomic_helper_and_reads(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/distributed/__init__.py": "",
                "src/repro/distributed/queue.py": GOOD_SPOOL,
            },
            select=["RPR010"],
        )
        assert codes(result) == []

    def test_quiet_outside_distributed_package(self, tmp_path):
        # The same writes in non-distributed code are RPR010-silent:
        # the rule is scoped to the worker/queue call graph.
        result = lint(
            tmp_path,
            {"src/repro/logs/io.py": BAD_SPOOL},
            select=["RPR010"],
        )
        assert codes(result) == []

    def test_fires_transitively_through_helpers(self, tmp_path):
        helper = """
            def torn_write(path, blob):
                with open(path, "wb") as handle:
                    handle.write(blob)
        """
        caller = """
            from repro.distributed.util import torn_write


            def publish(path, blob):
                torn_write(path, blob)
        """
        result = lint(
            tmp_path,
            {
                "src/repro/distributed/__init__.py": "",
                "src/repro/distributed/util.py": helper,
                "src/repro/distributed/worker.py": caller,
            },
            select=["RPR010"],
        )
        assert codes(result) == ["RPR010"]


class TestRepositoryIsClean:
    """The acceptance criterion: the shipped tree lints clean."""

    def test_src_and_benchmarks_lint_clean(self):
        result = run_lint(
            [REPO_ROOT / "src", REPO_ROOT / "benchmarks"],
            root=REPO_ROOT,
            baseline_path=REPO_ROOT / ".lint-baseline.json",
        )
        assert result.ok, [f.render() for f in result.findings]

    def test_stage_callgraph_reaches_analysis_layer(self):
        from repro.devtools.lint.project import load_project

        project = load_project([REPO_ROOT / "src"], root=REPO_ROOT)
        graph = project.callgraph
        assert len(graph.roots) >= 10
        reachable = set(graph.reachable)
        assert any("repro.analysis.perbot" in q for q in reachable)
        assert any("repro.logs.preprocess" in q for q in reachable)
        # shard workers are tracked separately for parallel-safety
        assert any(
            "preprocess_shard" in q for q in graph.shard_reachable
        )

    def test_distributed_callgraph_is_separate(self):
        from repro.devtools.lint.project import load_project

        project = load_project([REPO_ROOT / "src"], root=REPO_ROOT)
        graph = project.callgraph
        distributed = set(graph.distributed_reachable)
        assert any("repro.distributed.worker.run_worker" in q for q in distributed)
        assert any("repro.distributed.queue" in q for q in distributed)
        # The atomic helper is reachable from queue code...
        assert "repro.pipeline.store.atomic_write_bytes" in distributed
        # ...but lease/heartbeat clock use must never leak into the
        # stage-determinism tables (RPR001 would fire on time.time).
        assert not any("repro.distributed" in q for q in graph.reachable)
        assert not any("repro.distributed" in q for q in graph.shard_reachable)

    def test_scenario_stages_are_callgraph_covered(self):
        """The matrix runner's stages (and the simulation cone their
        worker pulls in) fall under RPR001-RPR005 automatically."""
        from repro.devtools.lint.project import load_project

        project = load_project([REPO_ROOT / "src"], root=REPO_ROOT)
        graph = project.callgraph
        by_stage = {
            (root.stage_name, root.role): root.decl.qualname
            for root in graph.roots
            if root.decl is not None
        }
        assert by_stage[("cells", "worker")] == (
            "repro.scenarios.matrix._cell_worker"
        )
        assert by_stage[("cells", "merge")] == (
            "repro.scenarios.matrix._merge_cells"
        )
        assert ("scorecard", "stage") in by_stage
        assert ("roc", "stage") in by_stage
        # The whole cell simulation runs inside the shard worker, so
        # the determinism rules see the simulation/bots cone it pulls
        # in (seeded-RNG-only is enforced there).
        shard = set(graph.shard_reachable)
        assert "repro.scenarios.simulate.run_cell" in shard
        assert "repro.scenarios.simulate.measure_cell" in shard
        assert any(q.startswith("repro.bots.agent") for q in shard)
        assert any(q.startswith("repro.simulation.hooks") for q in shard)
