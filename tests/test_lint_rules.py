"""Fixture tests for the repro.lint framework and every shipped rule.

Each rule gets at least one violating and one clean fixture (virtual
source snippets linted in memory through SourceFile), plus tests for the
suppression grammar, the --json schema round-trip, and the CLI exit codes.
"""

import json
import textwrap

import pytest

from repro.lint import (
    SourceFile,
    Violation,
    all_rules,
    lint_paths,
    lint_source,
    module_name_for,
    rule_ids,
    select_rules,
)
from repro.lint.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_VIOLATIONS
from repro.lint.cli import main as lint_main
from repro.lint.rules_layering import layer_of


def run_rules(rule_spec, text, path):
    """Lint a virtual file with the selected rules; returns violations."""
    source = SourceFile(path, textwrap.dedent(text))
    return lint_source(source, select_rules(rule_spec))


def rules_fired(rule_spec, text, path):
    return [v.rule for v in run_rules(rule_spec, text, path)]


# --------------------------------------------------------------------------- #
# Framework basics
# --------------------------------------------------------------------------- #
class TestFramework:
    def test_module_name_for(self):
        assert module_name_for("src/repro/eval/runner.py") == "repro.eval.runner"
        assert module_name_for("/abs/src/repro/api/__init__.py") == "repro.api"
        assert module_name_for("somewhere/script.py") == "script"

    def test_rule_ids_are_complete_and_ordered(self):
        assert list(rule_ids()) == [
            "RL000", "RL001", "RL002", "RL003", "RL005", "RL006", "RL007",
        ]

    def test_select_rules_unknown_id_raises(self):
        with pytest.raises(KeyError, match="RL042"):
            select_rules("RL042")

    def test_single_parse_is_shared_across_rules(self):
        source = SourceFile("src/repro/sim/x.py", "import os\n")
        first = source.nodes_of_type(type(source.tree.body[0]))
        lint_source(source, all_rules())
        assert source.nodes_of_type(type(source.tree.body[0])) is not None
        # The tree object is never re-parsed: identity is stable.
        assert source.tree.body[0] in first

    def test_violation_dict_round_trip(self):
        violation = Violation("a.py", 3, 7, "RL001", "message")
        assert Violation.from_dict(violation.to_dict()) == violation


# --------------------------------------------------------------------------- #
# RL001 — single environment-read site
# --------------------------------------------------------------------------- #
class TestRL001Env:
    def test_os_environ_outside_config_fires(self):
        assert rules_fired(
            "RL001", "import os\nX = os.environ.get('K')\n", "src/repro/sim/a.py"
        ) == ["RL001"]

    def test_os_getenv_fires(self):
        assert rules_fired(
            "RL001", "import os\nX = os.getenv('K')\n", "src/repro/eval/a.py"
        ) == ["RL001"]

    def test_from_os_import_environ_fires(self):
        assert rules_fired(
            "RL001", "from os import environ\n", "src/repro/workloads/a.py"
        ) == ["RL001"]

    def test_api_config_is_exempt(self):
        assert rules_fired(
            "RL001", "import os\nX = os.environ.get('K')\n", "src/repro/api/config.py"
        ) == []

    def test_docstring_mention_is_clean(self):
        # The old string grep false-positived on exactly this.
        text = '"""Reads nothing; os.environ is only mentioned here."""\n'
        assert rules_fired("RL001", text, "src/repro/sim/a.py") == []


# --------------------------------------------------------------------------- #
# RL002 — determinism
# --------------------------------------------------------------------------- #
class TestRL002Determinism:
    def test_hash_on_string_fires(self):
        assert rules_fired(
            "RL002", "SEED = hash('M13') % 100\n", "src/repro/eval/a.py"
        ) == ["RL002"]

    def test_hash_on_int_literal_is_clean(self):
        assert rules_fired("RL002", "X = hash(3)\n", "src/repro/eval/a.py") == []

    def test_random_module_fires(self):
        assert rules_fired(
            "RL002", "import random\nX = random.random()\n", "src/repro/sim/a.py"
        ) == ["RL002"]

    def test_time_time_fires_but_perf_counter_is_clean(self):
        assert rules_fired(
            "RL002", "import time\nT = time.time()\n", "src/repro/api/a.py"
        ) == ["RL002"]
        assert rules_fired(
            "RL002", "import time\nT = time.perf_counter()\n", "src/repro/sim/a.py"
        ) == []

    def test_datetime_now_fires(self):
        assert rules_fired(
            "RL002",
            "import datetime\nT = datetime.datetime.now()\n",
            "src/repro/eval/a.py",
        ) == ["RL002"]

    def test_seeded_numpy_rng_is_clean(self):
        assert rules_fired(
            "RL002",
            "import numpy as np\nX = np.random.default_rng(7).uniform()\n",
            "src/repro/eval/a.py",
        ) == []

    def test_outside_scoped_packages_is_clean(self):
        # The rule scopes to eval/, sim/, api/ — workloads hashing is out.
        assert rules_fired(
            "RL002", "SEED = hash('M13')\n", "src/repro/workloads/a.py"
        ) == []


# --------------------------------------------------------------------------- #
# RL003 — cache-key purity
# --------------------------------------------------------------------------- #
RUNNER_PATH = "src/repro/eval/runner.py"

CLEAN_RUNNER = """
    import hashlib, json

    class Job:
        def payload(self):
            return {"kind": self.kind, "sim": self.sim}

    def job_key(job):
        blob = json.dumps(job.payload(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def run(jobs, runtime):
        # Runtime knobs are fine OUTSIDE the key-builder closure.
        batch = runtime.replay_batch
        return [job_key(j) for j in jobs]
"""

DIRECT_LEAK = """
    def job_key(job, runtime):
        return (job.kind, runtime.replay_batch)
"""

TRANSITIVE_LEAK = """
    def _extras(job):
        return {"chunk": job.trace_chunk}

    class Job:
        def payload(self):
            return _extras(self)

    def job_key(job):
        return str(job.payload())
"""


class TestRL003CacheKey:
    def test_clean_runner_passes(self):
        assert rules_fired("RL003", CLEAN_RUNNER, RUNNER_PATH) == []

    def test_direct_runtime_knob_in_job_key_fires(self):
        violations = run_rules("RL003", DIRECT_LEAK, RUNNER_PATH)
        assert [v.rule for v in violations] == ["RL003"]
        assert "replay_batch" in violations[0].message

    @pytest.mark.parametrize(
        "knob", ["replay_backend", "replay_batch", "pool_chunk", "pool_warmup"]
    )
    def test_removed_knob_names_still_fire(self, knob):
        """Knobs deleted from RuntimeConfig stay barred from the key builders."""
        leak = f"""
    def job_key(job, runtime):
        return (job.kind, runtime.{knob})
"""
        violations = run_rules("RL003", leak, RUNNER_PATH)
        assert [v.rule for v in violations] == ["RL003"]
        assert knob in violations[0].message

    def test_transitive_reachability_fires(self):
        violations = run_rules("RL003", TRANSITIVE_LEAK, RUNNER_PATH)
        assert [v.rule for v in violations] == ["RL003"]
        assert "trace_chunk" in violations[0].message

    def test_rule_only_applies_to_eval_runner(self):
        assert rules_fired("RL003", DIRECT_LEAK, "src/repro/eval/other.py") == []


# --------------------------------------------------------------------------- #
# RL005 — registry-only dispatch
# --------------------------------------------------------------------------- #
class TestRL005RegistryDispatch:
    def test_module_level_dispatch_dict_fires(self):
        text = "def f():\n    pass\n\nTABLE = {'spmv': f}\n"
        violations = run_rules("RL005", text, "src/repro/eval/a.py")
        assert [v.rule for v in violations] == ["RL005"]
        assert "TABLE" in violations[0].message

    def test_constant_value_dict_is_clean(self):
        assert rules_fired(
            "RL005", "NAMES = {'spmv': 'SpMV'}\n", "src/repro/eval/a.py"
        ) == []

    def test_function_local_dict_is_clean(self):
        text = "def f(g):\n    table = {'spmv': g}\n    return table\n"
        assert rules_fired("RL005", text, "src/repro/eval/a.py") == []

    def test_registry_modules_are_exempt(self):
        text = "def f():\n    pass\n\nTABLE = {'spmv': f}\n"
        assert rules_fired("RL005", text, "src/repro/api/registry.py") == []
        assert rules_fired("RL005", text, "src/repro/kernels/registry.py") == []


# --------------------------------------------------------------------------- #
# RL006 — layering DAG
# --------------------------------------------------------------------------- #
class TestRL006Layering:
    def test_upward_import_fires(self):
        assert rules_fired(
            "RL006",
            "from repro.kernels.spmv import run\n",
            "src/repro/core/autotune.py",
        ) == ["RL006"]

    def test_downward_import_is_clean(self):
        assert rules_fired(
            "RL006",
            "from repro.formats.coo import COOMatrix\nfrom repro.sim.config import SimConfig\n",
            "src/repro/kernels/a.py",
        ) == []

    def test_deferred_function_import_is_exempt(self):
        text = "def f():\n    from repro.kernels.spmv import run\n    return run\n"
        assert rules_fired("RL006", text, "src/repro/core/a.py") == []

    def test_type_checking_guard_is_exempt(self):
        text = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.api import Session\n"
        )
        assert rules_fired("RL006", text, "src/repro/sim/a.py") == []

    def test_try_block_import_is_checked(self):
        text = "try:\n    from repro.eval.figures import run\nexcept ImportError:\n    run = None\n"
        assert rules_fired("RL006", text, "src/repro/sim/a.py") == ["RL006"]

    def test_equal_rank_cross_group_fires(self):
        assert rules_fired(
            "RL006",
            "from repro.graphs.graph import Graph\n",
            "src/repro/workloads/a.py",
        ) == ["RL006"]

    def test_intra_group_import_is_clean(self):
        assert rules_fired(
            "RL006",
            "from repro.eval.figures import list_experiments\n",
            "src/repro/eval/cli.py",
        ) == []

    def test_relative_upward_import_fires(self):
        assert rules_fired(
            "RL006", "from ..kernels import spmv\n", "src/repro/core/a.py"
        ) == ["RL006"]

    def test_api_registry_is_layer_zero(self):
        assert layer_of("repro.api.registry")[1] == 0
        assert rules_fired(
            "RL006",
            "from repro.api.registry import Registry\n",
            "src/repro/sim/_replay_core.py",
        ) == []

    def test_files_outside_repro_are_skipped(self):
        assert rules_fired(
            "RL006", "from repro.api import Session\n", "examples/quickstart.py"
        ) == []


# --------------------------------------------------------------------------- #
# RL007 — empty-report labels
# --------------------------------------------------------------------------- #
class TestRL007EmptyReports:
    def test_direct_construction_fires(self):
        text = "from repro.sim.instrumentation import CostReport\nR = CostReport(kernel='spmv')\n"
        assert rules_fired("RL007", text, "src/repro/graphs/a.py") == ["RL007"]

    def test_qualified_construction_fires(self):
        text = "from repro.sim import instrumentation\nR = instrumentation.CostReport()\n"
        assert rules_fired("RL007", text, "src/repro/eval/a.py") == ["RL007"]

    def test_empty_factory_is_clean(self):
        text = (
            "from repro.sim.instrumentation import CostReport\n"
            "R = CostReport.empty('pagerank', 'smash_hw')\n"
            "S = CostReport.from_dict({})\n"
        )
        assert rules_fired("RL007", text, "src/repro/graphs/a.py") == []

    def test_instrumentation_module_is_exempt(self):
        text = "R = CostReport(kernel='spmv')\n"
        assert rules_fired("RL007", text, "src/repro/sim/instrumentation.py") == []


# --------------------------------------------------------------------------- #
# Suppressions + RL000
# --------------------------------------------------------------------------- #
class TestSuppressions:
    def test_justified_suppression_silences_the_rule(self):
        text = "import os\nX = os.getenv('K')  # repro-lint: disable=RL001 -- fixture\n"
        assert rules_fired("RL001", text, "src/repro/sim/a.py") == []

    def test_disable_all_with_reason(self):
        text = "import os\nX = os.getenv('K')  # repro-lint: disable=all -- fixture\n"
        assert rules_fired("RL001", text, "src/repro/sim/a.py") == []

    def test_suppression_of_other_rule_does_not_silence(self):
        text = "import os\nX = os.getenv('K')  # repro-lint: disable=RL005 -- wrong id\n"
        assert rules_fired("RL001", text, "src/repro/sim/a.py") == ["RL001"]

    def test_suppression_only_covers_its_own_line(self):
        text = (
            "import os  # repro-lint: disable=RL001 -- wrong line\n"
            "X = os.getenv('K')\n"
        )
        assert rules_fired("RL001", text, "src/repro/sim/a.py") == ["RL001"]

    def test_unjustified_suppression_is_an_rl000_violation(self):
        text = "import os\nX = os.getenv('K')  # repro-lint: disable=RL001\n"
        fired = rules_fired(None, text, "src/repro/sim/a.py")
        # The target rule is silenced, but the hygiene rule fires instead:
        # an exemption can never be free.
        assert fired == ["RL000"]

    def test_unknown_rule_id_in_suppression_is_flagged(self):
        text = "X = 1  # repro-lint: disable=RL999 -- no such rule\n"
        assert rules_fired(None, text, "src/repro/sim/a.py") == ["RL000"]

    def test_grammar_inside_string_literal_is_not_a_suppression(self):
        # Comments come from the tokenizer, not a line grep: a string that
        # mentions the grammar neither suppresses nor trips RL000.
        text = 'DOC = "use # repro-lint: disable=RL001 to suppress"\n'
        assert rules_fired(None, text, "src/repro/sim/a.py") == []


# --------------------------------------------------------------------------- #
# CLI: JSON schema, exit codes, smash-repro integration
# --------------------------------------------------------------------------- #
class TestCli:
    def test_json_schema_round_trip(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import os\nX = os.getenv('K')\n", encoding="utf-8")
        code = lint_main([str(tmp_path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_VIOLATIONS
        assert payload["version"] == 1
        assert payload["files"] == 1
        assert payload["rules"] == list(rule_ids())
        restored = [Violation.from_dict(v) for v in payload["violations"]]
        assert [v.rule for v in restored] == ["RL001"]
        assert restored[0].line == 2

    def test_exit_clean(self, tmp_path, capsys):
        good = tmp_path / "repro" / "sim" / "good.py"
        good.parent.mkdir(parents=True)
        good.write_text("X = 1\n", encoding="utf-8")
        assert lint_main([str(tmp_path)]) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out

    def test_exit_error_on_missing_path(self, capsys):
        assert lint_main(["/no/such/path"]) == EXIT_ERROR

    def test_exit_error_on_bad_select(self, capsys):
        assert lint_main(["--select", "RL042"]) == EXIT_ERROR

    def test_exit_error_on_syntax_error(self, tmp_path, capsys):
        broken = tmp_path / "repro" / "broken.py"
        broken.parent.mkdir(parents=True)
        broken.write_text("def f(:\n", encoding="utf-8")
        assert lint_main([str(tmp_path)]) == EXIT_ERROR

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in rule_ids():
            assert rule_id in out

    def test_smash_repro_lint_subcommand(self, tmp_path, capsys):
        from repro.eval.cli import main as smash_main

        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import os\nX = os.environ['K']\n", encoding="utf-8")
        assert smash_main(["lint", str(tmp_path)]) == EXIT_VIOLATIONS
        assert "RL001" in capsys.readouterr().out
        good_only = tmp_path / "repro" / "sim"
        bad.write_text("X = 1\n", encoding="utf-8")
        assert smash_main(["lint", str(good_only)]) == EXIT_CLEAN
