"""Tests for the static-analysis suite (repro lint, rules RPR001-RPR007)."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.findings import Severity
from repro.analysis.framework import (
    PARSE_RULE,
    AnalysisError,
    analyze_paths,
    analyze_source,
    parse_cached,
    rule_catalogue,
)
from repro.analysis.lint import run_lint
from repro.analysis.reporters import format_json, format_text
from repro.contracts import ContractError, contract, parse_contract

REPO_ROOT = Path(__file__).resolve().parents[1]
REPO_SRC = REPO_ROOT / "src" / "repro"


def rules_of(findings):
    return [f.rule_id for f in findings]


class TestRuntimeImports:
    def test_runtime_does_not_import_the_linter(self):
        code = (
            "import sys\n"
            "import repro.kfusion.pipeline, repro.serve, repro.hypermapper,"
            " repro.jobs\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] == ['repro', 'analysis']))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_SRC.parent))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestFramework:
    def test_rule_catalogue_complete(self):
        catalogue = rule_catalogue()
        assert set(catalogue) == {
            "RPR001", "RPR002", "RPR003", "RPR005", "RPR006",
            "RPR007", "RPR008",
        }
        assert all(title for title in catalogue.values())

    def test_syntax_error_reported_as_rpr000(self):
        findings = analyze_source("def broken(:\n", path="bad.py")
        assert rules_of(findings) == [PARSE_RULE]
        assert findings[0].path == "bad.py"

    def test_unknown_rule_selection_rejected(self):
        with pytest.raises(AnalysisError):
            analyze_source("x = 1\n", select=["RPR999"])

    def test_missing_path_rejected(self):
        with pytest.raises(AnalysisError):
            analyze_paths(["no/such/dir"])

    def test_findings_sorted_by_location(self):
        src = (
            "import time\n"
            "b = time.monotonic()\n"
            "a = time.perf_counter()\n"
        )
        findings = analyze_source(src, select=["RPR001"])
        assert [f.line for f in findings] == [2, 3]


class TestNoqa:
    def test_rule_specific_noqa_suppresses(self):
        src = "import time\nt = time.time()  # noqa: RPR001\n"
        assert analyze_source(src, select=["RPR001"]) == []

    def test_blanket_noqa_suppresses(self):
        src = "import time\nt = time.time()  # noqa\n"
        assert analyze_source(src, select=["RPR001"]) == []

    def test_other_rule_noqa_does_not_suppress(self):
        src = "import time\nt = time.time()  # noqa: RPR002\n"
        assert rules_of(analyze_source(src, select=["RPR001"])) == ["RPR001"]


class TestTimingDiscipline:
    """RPR001."""

    def test_flags_perf_counter(self):
        src = "import time\nstart = time.perf_counter()\n"
        findings = analyze_source(src, path="x.py", select=["RPR001"])
        assert rules_of(findings) == ["RPR001"]
        assert findings[0].line == 2
        assert "telemetry" in findings[0].message

    def test_flags_from_import_alias(self):
        src = "from time import perf_counter as pc\nt = pc()\n"
        findings = analyze_source(src, select=["RPR001"])
        assert rules_of(findings) == ["RPR001"]

    def test_flags_monotonic_and_time(self):
        src = "import time\na = time.time()\nb = time.monotonic()\n"
        assert len(analyze_source(src, select=["RPR001"])) == 2

    def test_telemetry_modules_exempt(self):
        src = "import time\nstart = time.perf_counter()\n"
        findings = analyze_source(
            src, path="src/repro/telemetry/tracer.py", select=["RPR001"]
        )
        assert findings == []

    def test_unrelated_time_attribute_not_flagged(self):
        src = "record = get()\nt = record.time\nd = record.time.perf_counter\n"
        assert analyze_source(src, select=["RPR001"]) == []

    def test_time_sleep_not_flagged(self):
        src = "import time\ntime.sleep(0.1)\n"
        assert analyze_source(src, select=["RPR001"]) == []

    def test_seeded_clock_in_harness_copy_located(self, tmp_path):
        """A sneaked perf_counter in a scratch harness copy is pinpointed."""
        source = (REPO_SRC / "core" / "harness.py").read_text()
        patched = source + (
            "\n\ndef _sneaky_wall_clock():\n"
            "    import time\n"
            "    return time.perf_counter()\n"
        )
        copy = tmp_path / "harness_copy.py"
        copy.write_text(patched)
        expected_line = (
            patched.splitlines().index("    return time.perf_counter()") + 1
        )
        findings = analyze_paths([copy], select=["RPR001"])
        assert rules_of(findings) == ["RPR001"]
        assert findings[0].path == str(copy)
        assert findings[0].line == expected_line


class TestRngDiscipline:
    """RPR002."""

    def test_flags_global_seed(self):
        src = "import numpy as np\nnp.random.seed(0)\n"
        findings = analyze_source(src, select=["RPR002"])
        assert rules_of(findings) == ["RPR002"]
        assert "Generator" in findings[0].message

    def test_flags_module_level_draws(self):
        src = (
            "import numpy as np\n"
            "a = np.random.rand(3)\n"
            "b = np.random.normal(0.0, 1.0)\n"
            "c = np.random.randint(10)\n"
        )
        assert len(analyze_source(src, select=["RPR002"])) == 3

    def test_flags_numpy_random_import(self):
        src = "from numpy import random\nx = random.uniform(0, 1)\n"
        findings = analyze_source(src, select=["RPR002"])
        assert rules_of(findings) == ["RPR002"]

    def test_default_rng_allowed(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(1)\n"
            "g = np.random.Generator(np.random.PCG64(1))\n"
        )
        assert analyze_source(src, select=["RPR002"]) == []

    def test_flags_unseeded_generators(self):
        src = (
            "import numpy as np\n"
            "from numpy.random import SeedSequence\n"
            "_RNG = np.random.default_rng()\n"
            "def track(x):\n"
            "    return x + _RNG.normal()\n"
            "a = np.random.default_rng(None)\n"
            "b = np.random.Generator(np.random.PCG64(seed=None))\n"
            "c = SeedSequence()\n"
        )
        findings = analyze_source(src, select=["RPR002"])
        assert [f.line for f in findings] == [3, 6, 7, 8]
        assert "default_rng() without a seed" in findings[0].message

    def test_injected_generator_draws_allowed(self):
        src = "def f(rng):\n    return rng.normal(size=3)\n"
        assert analyze_source(src, select=["RPR002"]) == []


class TestErrorPolicy:
    """RPR003."""

    def test_flags_bare_builtin_raise(self):
        src = "def f(x):\n    raise ValueError('bad')\n"
        findings = analyze_source(src, select=["RPR003"])
        assert rules_of(findings) == ["RPR003"]
        assert "ReproError" in findings[0].message

    def test_flags_runtime_error_without_call(self):
        src = "def f():\n    raise RuntimeError\n"
        assert rules_of(analyze_source(src, select=["RPR003"])) == ["RPR003"]

    def test_repro_errors_allowed(self):
        src = (
            "from repro.errors import ConfigurationError\n"
            "def f(x):\n"
            "    raise ConfigurationError('bad')\n"
        )
        assert analyze_source(src, select=["RPR003"]) == []

    def test_programming_errors_allowed(self):
        src = (
            "def f(x):\n"
            "    raise TypeError('wrong type')\n"
            "def g():\n"
            "    raise NotImplementedError\n"
        )
        assert analyze_source(src, select=["RPR003"]) == []

    def test_bare_reraise_allowed(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        raise\n"
        )
        assert analyze_source(src, select=["RPR003"]) == []

    def test_locally_defined_shadow_allowed(self):
        src = (
            "class ValueError(Exception):\n"
            "    pass\n"
            "def f():\n"
            "    raise ValueError('local class, not the builtin')\n"
        )
        assert analyze_source(src, select=["RPR003"]) == []

    def test_main_without_handler_flagged(self):
        src = (
            "def main(argv=None):\n"
            "    return run(argv)\n"
        )
        findings = analyze_source(src, select=["RPR003"])
        assert rules_of(findings) == ["RPR003"]
        assert "traceback" in findings[0].message

    def test_main_with_repro_error_handler_clean(self):
        src = (
            "from repro.errors import ReproError\n"
            "def main(argv=None):\n"
            "    try:\n"
            "        return run(argv)\n"
            "    except ReproError as exc:\n"
            "        print(exc)\n"
            "        return 1\n"
        )
        assert analyze_source(src, select=["RPR003"]) == []

    def test_method_named_main_not_flagged(self):
        src = (
            "class App:\n"
            "    def main(self):\n"
            "        return 0\n"
        )
        assert analyze_source(src, select=["RPR003"]) == []


class TestContractSyntaxChecker:
    """RPR005 — what a static reader of @contract needs: literals.

    Malformed strings, unknown parameters and contradictory stacks fail
    at decoration time (see TestContractRuntime)."""

    def test_good_contract_clean(self):
        src = (
            "from repro.contracts import contract\n"
            "@contract(depth='H,W:f64', pose='4,4:f64')\n"
            "def f(depth, pose):\n"
            "    return depth\n"
        )
        assert analyze_source(src, select=["RPR005"]) == []

    def test_non_literal_contract_flagged(self):
        src = (
            "from repro.contracts import contract\n"
            "SPEC = '4,4:f64'\n"
            "@contract(x=SPEC)\n"
            "def f(x):\n"
            "    return x\n"
        )
        findings = analyze_source(src, select=["RPR005"])
        assert any("string literal" in f.message for f in findings)

    def test_kwargs_spread_flagged(self):
        src = (
            "from repro.contracts import contract\n"
            "SPECS = {'x': '4,4:f64'}\n"
            "@contract(**SPECS)\n"
            "def f(x):\n"
            "    return x\n"
        )
        findings = analyze_source(src, select=["RPR005"])
        assert any("spread" in f.message for f in findings)

    def test_unrelated_decorator_ignored(self):
        src = (
            "def contract_like(**kw):\n"
            "    return lambda f: f\n"
            "@other_decorator(x=1)\n"
            "def f(x):\n"
            "    return x\n"
        )
        assert analyze_source(src, select=["RPR005"]) == []


class TestProcessDisciplineChecker:
    """RPR006 — multiprocessing/concurrent.futures only inside repro.jobs."""

    def test_import_multiprocessing_flagged(self):
        findings = analyze_source("import multiprocessing\n",
                                  path="src/repro/crowd/campaign.py",
                                  select=["RPR006"])
        assert rules_of(findings) == ["RPR006"]

    def test_from_import_flagged(self):
        src = "from multiprocessing import Pool\n"
        assert rules_of(analyze_source(src, path="src/repro/cli.py",
                                       select=["RPR006"])) == ["RPR006"]

    def test_concurrent_futures_flagged(self):
        for src in (
            "from concurrent.futures import ProcessPoolExecutor\n",
            "from concurrent import futures\n",
            "import concurrent.futures\n",
        ):
            findings = analyze_source(src, path="src/repro/core/harness.py",
                                      select=["RPR006"])
            assert rules_of(findings) == ["RPR006"], src

    def test_attribute_use_flagged(self):
        src = (
            "import concurrent\n"
            "def f():\n"
            "    return concurrent.futures.ThreadPoolExecutor()\n"
        )
        findings = analyze_source(src, path="src/repro/core/harness.py",
                                  select=["RPR006"])
        assert rules_of(findings) == ["RPR006"]
        assert findings[0].line == 3

    def test_jobs_modules_exempt(self):
        src = "import multiprocessing\nfrom concurrent import futures\n"
        assert analyze_source(src, path="src/repro/jobs/pool.py",
                              select=["RPR006"]) == []

    def test_unrelated_imports_clean(self):
        src = "import json\nfrom concurrent_lib import thing\n"
        assert analyze_source(src, path="src/repro/cli.py",
                              select=["RPR006"]) == []

    # -- thread-lifecycle arm: Thread/Timer only in repro.jobs/repro.serve
    def test_thread_spawn_flagged_outside_lifecycle_owners(self):
        src = (
            "import threading\n"
            "t = threading.Thread(target=print)\n"
        )
        findings = analyze_source(src, path="src/repro/core/harness.py",
                                  select=["RPR006"])
        assert rules_of(findings) == ["RPR006"]
        assert findings[0].line == 2
        assert "repro.serve" in findings[0].message

    def test_from_import_thread_flagged(self):
        src = (
            "from threading import Thread\n"
            "worker = Thread(target=print)\n"
        )
        findings = analyze_source(src, path="src/repro/telemetry/tracer.py",
                                  select=["RPR006"])
        assert rules_of(findings) == ["RPR006"]

    def test_timer_flagged(self):
        src = "import threading\nthreading.Timer(1.0, print)\n"
        assert rules_of(analyze_source(src, path="src/repro/cli.py",
                                       select=["RPR006"])) == ["RPR006"]

    def test_thread_spawn_allowed_in_serve_and_jobs(self):
        src = "import threading\nt = threading.Thread(target=print)\n"
        for path in ("src/repro/serve/engine.py", "src/repro/jobs/pool.py"):
            assert analyze_source(src, path=path, select=["RPR006"]) == []

    def test_sync_primitives_stay_legal_below_module_scope(self):
        # class/function-scoped primitives are fine anywhere; only the
        # module-scope-lock arm (TestModuleScopeLocks below) restricts
        # where process-wide ones live
        src = (
            "import threading\n"
            "tls = threading.local()\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._cond = threading.Condition(self._lock)\n"
            "def f():\n"
            "    return threading.Event()\n"
        )
        assert analyze_source(src, path="src/repro/telemetry/tracer.py",
                              select=["RPR006"]) == []


class TestModuleScopeLocks:
    def test_module_level_lock_flagged(self):
        findings = analyze_source(
            "import threading\n_LOCK = threading.Lock()\n",
            path="src/repro/telemetry/gate.py", select=["RPR006"])
        assert [f.rule_id for f in findings] == ["RPR006"]
        assert "module-scope threading.Lock()" in findings[0].message

    def test_module_level_event_flagged(self):
        findings = analyze_source(
            "import threading\nPACER = threading.Event()\n",
            path="src/repro/perf/pace.py", select=["RPR006"])
        assert [f.rule_id for f in findings] == ["RPR006"]

    def test_lifecycle_modules_exempt(self):
        src = "import threading\n_LOCK = threading.Lock()\n"
        assert analyze_source(src, path="src/repro/serve/engine.py",
                              select=["RPR006"]) == []
        assert analyze_source(src, path="src/repro/jobs/pool.py",
                              select=["RPR006"]) == []

    def test_instance_lock_clean_anywhere(self):
        src = ("import threading\n"
               "class C:\n"
               "    def __init__(self):\n"
               "        self._lock = threading.Lock()\n")
        assert analyze_source(src, path="src/repro/telemetry/gate.py",
                              select=["RPR006"]) == []


class TestParseCache:
    def test_same_source_same_object(self):
        src = "x = 1\n"
        a = parse_cached(src, "cache_probe.py")
        assert parse_cached(src, "cache_probe.py") is a

    def test_changed_source_reparsed(self):
        a = parse_cached("x = 1\n", "cache_probe2.py")
        b = parse_cached("x = 2\n", "cache_probe2.py")
        assert b is not a

    def test_same_source_different_path_distinct(self):
        src = "x = 3\n"
        a = parse_cached(src, "cache_probe3.py")
        b = parse_cached(src, "cache_probe4.py")
        assert b is not a and b.path != a.path


class TestDtypeDisciplineChecker:
    """RPR007 — no float64 temporaries in repro/perf and
    kfusion/pipeline.py, the code the fast and sparse backends run."""

    HOT = "src/repro/perf/raycast.py"

    def test_default_allocator_flagged(self):
        src = "import numpy as np\nbuf = np.zeros((4, 4))\n"
        findings = analyze_source(src, path=self.HOT, select=["RPR007"])
        assert rules_of(findings) == ["RPR007"]
        assert "dtype" in findings[0].message

    def test_explicit_float64_dtype_flagged(self):
        for dtype in ("np.float64", "float", '"float64"'):
            src = (f"import numpy as np\n"
                   f"buf = np.empty(8, dtype={dtype})\n")
            findings = analyze_source(src, path=self.HOT, select=["RPR007"])
            assert rules_of(findings) == ["RPR007"], dtype

    def test_astype_float64_flagged(self):
        src = "def f(x):\n    return x.astype(float)\n"
        findings = analyze_source(src, path=self.HOT, select=["RPR007"])
        assert rules_of(findings) == ["RPR007"]

    def test_float32_clean(self):
        src = (
            "import numpy as np\n"
            "a = np.zeros((4, 4), dtype=np.float32)\n"
            "b = np.full(8, 1.0, dtype=np.float32)\n"
            "c = a.astype(np.float32)\n"
            "d = np.rint(b).astype(np.int32)\n"
        )
        assert analyze_source(src, path=self.HOT, select=["RPR007"]) == []

    def test_f64_waiver_honoured(self):
        src = ("import numpy as np\n"
               "A = x.astype(float)  # f64-ok: solver operates in f64\n")
        assert analyze_source(src, path=self.HOT, select=["RPR007"]) == []

    def test_kfusion_hot_module_in_scope(self):
        src = "import numpy as np\nbuf = np.zeros(3)\n"
        findings = analyze_source(src, path="src/repro/kfusion/pipeline.py",
                                  select=["RPR007"])
        assert rules_of(findings) == ["RPR007"]

    def test_cold_modules_exempt(self):
        # The reference kfusion kernels are float64 by design: they are
        # the accuracy oracle the fast and sparse backends answer to.
        src = "import numpy as np\nbuf = np.zeros(3, dtype=float)\n"
        for path in ("src/repro/kfusion/tracking.py",
                     "src/repro/kfusion/params.py",
                     "src/repro/core/harness.py",
                     "src/repro/metrics/ate.py"):
            assert analyze_source(src, path=path, select=["RPR007"]) == [], \
                path


class TestContractRuntime:
    """The runtime side of @contract."""

    def test_parse_contract_roundtrip(self):
        spec = parse_contract("H,W:f64")
        assert spec.dims == ("H", "W")
        assert spec.kind == "f"
        assert not spec.ellipsis_leading
        spec = parse_contract("...,3:f64")
        assert spec.ellipsis_leading
        assert spec.dims == (3,)

    @pytest.mark.parametrize("bad", [
        "", "H,,W:f64", "4,4:q7", "H,...:f64", "-1,4:f64", "...",
    ])
    def test_parse_contract_rejects(self, bad):
        with pytest.raises(ContractError):
            parse_contract(bad)

    def test_matching_call_passes(self):
        @contract(pose="4,4:f64", points="...,3:f64")
        def f(pose, points):
            return points.shape

        assert f(np.eye(4), np.zeros((7, 3))) == (7, 3)
        assert f(np.eye(4), np.zeros((2, 5, 3))) == (2, 5, 3)

    def test_wrong_shape_rejected(self):
        @contract(pose="4,4:f64")
        def f(pose):
            return pose

        with pytest.raises(ContractError):
            f(np.eye(3))

    def test_wrong_trailing_dim_rejected(self):
        @contract(points="...,3:f64")
        def f(points):
            return points

        with pytest.raises(ContractError):
            f(np.zeros((5, 2)))

    def test_symbolic_dims_bind_within_call(self):
        @contract(a="H,W:f64", b="H,W:f64")
        def f(a, b):
            return a + b

        f(np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(ContractError):
            f(np.zeros((2, 3)), np.ones((3, 2)))

    def test_dtype_kind_enforced_with_widening(self):
        @contract(x="N:f64")
        def f(x):
            return x

        f(np.zeros(3))                  # float: exact
        f(np.zeros(3, dtype=np.int32))  # int widens to float: fine

        @contract(x="N:i64")
        def g(x):
            return x

        with pytest.raises(ContractError):
            g(np.zeros(3))              # float does not narrow to int

    def test_non_ndarray_arguments_skipped(self):
        @contract(points="...,3:f64")
        def f(points):
            return np.asarray(points)

        assert f([[1.0, 2.0, 3.0]]).shape == (1, 3)

    def test_keyword_call_checked(self):
        @contract(pose="4,4:f64")
        def f(a, pose=None):
            return pose

        with pytest.raises(ContractError):
            f(1, pose=np.eye(3))

    def test_unknown_parameter_fails_at_decoration(self):
        with pytest.raises(ContractError):
            @contract(nope="4,4:f64")
            def f(pose):
                return pose

    def test_contradictory_stack_fails_at_decoration(self):
        with pytest.raises(ContractError):
            @contract(x="4,4:f64")
            @contract(x="3,3:f64")
            def f(x):
                return x

    def test_contracts_attribute_merged(self):
        @contract(a="4,4:f64")
        @contract(b="N:f64")
        def f(a, b):
            return a

        assert set(f.__repro_contracts__) == {"a", "b"}


class TestReporters:
    def _one_finding(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("import time\nt = time.time()\n")
        return analyze_paths([f], select=["RPR001"])

    def test_text_report(self, tmp_path):
        findings = self._one_finding(tmp_path)
        text = format_text(findings)
        assert f"{findings[0].path}:2:" in text
        assert "RPR001" in text
        assert text.endswith("1 error(s)")

    def test_text_report_clean(self):
        assert format_text([]).startswith("clean:")

    def test_json_report_shape(self, tmp_path):
        findings = self._one_finding(tmp_path)
        doc = json.loads(format_json(findings))
        assert doc["summary"]["total"] == 1
        assert doc["summary"]["errors"] == 1
        assert "warnings" not in doc["summary"]
        assert doc["summary"]["by_rule"] == {"RPR001": 1}
        entry = doc["findings"][0]
        assert entry["rule"] == "RPR001"
        assert entry["line"] == 2
        assert entry["severity"] == str(Severity.ERROR)


class TestRunLint:
    def test_clean_tree_exits_zero(self, tmp_path):
        f = tmp_path / "ok.py"
        f.write_text("x = 1\n")
        out = []
        assert run_lint([str(f)], echo=out.append) == 0
        assert out[0].startswith("clean:")

    def test_findings_exit_one(self, tmp_path):
        f = tmp_path / "bad.py"
        f.write_text("import time\nt = time.time()\n")
        out = []
        assert run_lint([str(f)], echo=out.append) == 1
        assert "RPR001" in out[0]

    def test_select_restricts_rules(self, tmp_path):
        f = tmp_path / "mixed.py"
        f.write_text(
            "import time\n"
            "def f():\n"
            "    raise ValueError(time.time())\n"
        )
        out = []
        assert run_lint([str(f)], select=["RPR003"], echo=out.append) == 1
        assert "RPR001" not in out[0] and "RPR003" in out[0]


class TestCli:
    def test_lint_subcommand_json(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "bad.py"
        f.write_text("import numpy as np\nnp.random.seed(0)\n")
        code = main(["lint", str(f), "--format", "json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["by_rule"] == {"RPR002": 1}

    def test_lint_subcommand_clean(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "ok.py"
        f.write_text("x = 1\n")
        assert main(["lint", str(f)]) == 0
        assert capsys.readouterr().out.startswith("clean:")

    def test_lint_select_flag(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "bad.py"
        f.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(f), "--select", "RPR002"]) == 0
        capsys.readouterr()


class TestRepoIsClean:
    def test_src_repro_has_no_new_findings(self, monkeypatch):
        """The tree satisfies its own linter with no baseline; lints from
        the repo root, as CI does."""
        monkeypatch.chdir(REPO_ROOT)
        assert analyze_paths(["src/repro"]) == []


class TestLiveTreeDtypeRegression:
    def test_f64_rotation_in_fast_tracker_turns_rpr007_red(self, tmp_path):
        """The defect only RPR007 catches: a float64 rotation in the fast
        tracker passes every tier-1 test (golden, perf, pipeline,
        kernels) but doubles the bandwidth of the per-pixel transform."""
        root = tmp_path / "repro"
        shutil.copytree(REPO_SRC, root)
        assert analyze_paths([str(root)], select=["RPR007"]) == []

        tracking_py = root / "perf" / "tracking.py"
        source = tracking_py.read_text()
        cast = "R32 = pose[:3, :3].astype(np.float32)"
        assert source.count(cast) == 1
        tracking_py.write_text(
            source.replace(cast, "R32 = pose[:3, :3].astype(np.float64)"))

        findings = analyze_paths([str(root)], select=["RPR007"])
        assert [(Path(f.path).name, f.rule_id) for f in findings] == [
            ("tracking.py", "RPR007")]
        assert ".astype(float64)" in findings[0].message
