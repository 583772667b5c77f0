"""Tests for the static concurrency verifier (S23).

Covers the two race rules (RPR014, RPR016) over scratch projects (true
positive AND false-positive guard for each), the ``# guarded-by:``
waiver grammar, the module-scope-lock arm of RPR006, the
content-addressed AST memo, and the live-tree regression: deleting one
``with self._lock:`` from ``ServeEngine.stats`` must turn ``repro
races check`` red.
"""

from __future__ import annotations

import shutil
import textwrap
from pathlib import Path

from repro.analysis.commands import races_check, races_show
from repro.analysis.framework import analyze_paths, analyze_source, parse_cached
from repro.analysis.lint import (
    LINT_EXIT_CLEAN,
    LINT_EXIT_FINDINGS,
    LINT_EXIT_INTERNAL,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

BASE_POLICY = """\
    version = 1
    root = "repro"

    [[layer]]
    name = "top"
    packages = ["repro"]
"""


def write_proj(tmp_path, files, policy: str | None = None):
    """Scratch project: optional ``ARCHITECTURE.toml`` + ``repro/`` files."""
    root = tmp_path / "proj"
    (root / "repro").mkdir(parents=True)
    if policy is not None:
        (root / "ARCHITECTURE.toml").write_text(textwrap.dedent(policy))
    for rel, src in files.items():
        p = root / "repro" / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(src))
    return root


def conc_findings(monkeypatch, root, select):
    monkeypatch.chdir(root)
    return analyze_paths(["repro"], select=select)


# -- RPR014: shared-state lockset ---------------------------------------------

RACY_WORKER = """\
    import threading

    class Worker:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0

        def start(self):
            threading.Thread(target=self._run).start()

        def _run(self):
            self._bump()

        def _bump(self):
            self.count += 1

        def poll(self):
            return self.count
"""

LOCKED_WORKER = """\
    import threading

    class Worker:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0

        def start(self):
            threading.Thread(target=self._run).start()

        def _run(self):
            self._bump()

        def _bump(self):
            with self._lock:
                self.count += 1

        def poll(self):
            with self._lock:
                return self.count
"""


class TestSharedStateLockset:
    def test_cross_function_race_flagged_with_chain(self, tmp_path,
                                                    monkeypatch):
        root = write_proj(tmp_path, {"w.py": RACY_WORKER})
        findings = conc_findings(monkeypatch, root, ["RPR014"])
        assert [f.rule_id for f in findings] == ["RPR014"]
        msg = findings[0].message
        assert "Worker.count" in msg and "no common lockset" in msg
        # the forcing chain names the interprocedural path to the write
        assert "Worker._run -> Worker._bump" in msg

    def test_common_lockset_clean(self, tmp_path, monkeypatch):
        root = write_proj(tmp_path, {"w.py": LOCKED_WORKER})
        assert conc_findings(monkeypatch, root, ["RPR014"]) == []

    def test_declared_guard_violation_flagged(self, tmp_path, monkeypatch):
        policy = """\
            version = 1
            root = "repro"

            [[layer]]
            name = "top"
            packages = ["repro"]

            [[lock]]
            name = "repro.w.Worker._lock"
            guards = ["repro.w.Worker.count"]
            reason = "counter belongs to the worker lock"
        """
        root = write_proj(tmp_path, {"w.py": RACY_WORKER}, policy=policy)
        findings = conc_findings(monkeypatch, root, ["RPR014"])
        assert len(findings) == 1
        assert "declared guarded by Worker._lock" in findings[0].message


# -- `# guarded-by:` waiver grammar -------------------------------------------

def _worker_with_marker(marker_line: str) -> str:
    return RACY_WORKER.replace(
        "            self.count += 1",
        f"            {marker_line}\n            self.count += 1")


class TestGuardedByGrammar:
    def test_trusted_discipline_waives_race(self, tmp_path, monkeypatch):
        src = _worker_with_marker(
            "# guarded-by: owner -- poll is only called before start()")
        root = write_proj(tmp_path, {"w.py": src})
        assert conc_findings(monkeypatch, root, ["RPR014"]) == []

    def test_named_lock_waives_race(self, tmp_path, monkeypatch):
        src = _worker_with_marker(
            "# guarded-by: _lock -- serialised externally by the harness")
        root = write_proj(tmp_path, {"w.py": src})
        assert conc_findings(monkeypatch, root, ["RPR014"]) == []

    def test_marker_without_reason_is_malformed(self, tmp_path, monkeypatch):
        src = _worker_with_marker("# guarded-by: owner")
        root = write_proj(tmp_path, {"w.py": src})
        findings = conc_findings(monkeypatch, root, ["RPR014"])
        assert any("malformed guarded-by annotation" in f.message
                   for f in findings)

    def test_unknown_lock_target_flagged(self, tmp_path, monkeypatch):
        src = _worker_with_marker(
            "# guarded-by: _nope -- this lock does not exist")
        root = write_proj(tmp_path, {"w.py": src})
        findings = conc_findings(monkeypatch, root, ["RPR014"])
        assert len(findings) == 1
        assert "names no known lock" in findings[0].message

    def test_marker_in_string_literal_ignored(self, tmp_path, monkeypatch):
        # only real comment tokens count: the grammar in a docstring must
        # neither waive the race nor read as malformed
        src = RACY_WORKER.replace(
            "        def _bump(self):",
            '        def _bump(self):\n'
            '            "# guarded-by: owner -- nope"')
        root = write_proj(tmp_path, {"w.py": src})
        findings = conc_findings(monkeypatch, root, ["RPR014"])
        assert [f.rule_id for f in findings] == ["RPR014"]
        assert "no common lockset" in findings[0].message


# -- RPR016: wait and blocking discipline -------------------------------------

BARE_WAIT = """\
    import threading

    class Box:
        def __init__(self):
            self._cond = threading.Condition()
            self.items = []

        def put(self, item):
            with self._cond:
                self.items.append(item)
                self._cond.notify()

        def get(self):
            with self._cond:
                self._cond.wait()
                return self.items.pop()
"""


class TestWaitDiscipline:
    def test_untimed_wait_outside_loop_flagged(self, tmp_path, monkeypatch):
        root = write_proj(tmp_path, {"b.py": BARE_WAIT})
        findings = conc_findings(monkeypatch, root, ["RPR016"])
        assert [f.rule_id for f in findings] == ["RPR016"]
        assert "outside a predicate loop" in findings[0].message

    def test_wait_in_predicate_loop_clean(self, tmp_path, monkeypatch):
        src = BARE_WAIT.replace(
            "                self._cond.wait()",
            "                while not self.items:\n"
            "                    self._cond.wait()")
        root = write_proj(tmp_path, {"b.py": src})
        assert conc_findings(monkeypatch, root, ["RPR016"]) == []

    def test_timed_wait_outside_loop_clean(self, tmp_path, monkeypatch):
        src = BARE_WAIT.replace("self._cond.wait()",
                                "self._cond.wait(0.1)")
        root = write_proj(tmp_path, {"b.py": src})
        assert conc_findings(monkeypatch, root, ["RPR016"]) == []

    def test_sleep_under_lock_flagged(self, tmp_path, monkeypatch):
        src = """\
            import threading
            import time

            class Slow:
                def __init__(self):
                    self._lock = threading.Lock()

                def nap(self):
                    with self._lock:
                        time.sleep(0.1)
        """
        root = write_proj(tmp_path, {"s.py": src})
        findings = conc_findings(monkeypatch, root, ["RPR016"])
        assert any("blocking call time.sleep()" in f.message
                   for f in findings)

    def test_io_effect_under_lock_flagged(self, tmp_path, monkeypatch):
        src = """\
            import threading

            class Logger:
                def __init__(self):
                    self._lock = threading.Lock()

                def emit(self, line):
                    with self._lock:
                        self._write(line)

                def _write(self, line):
                    print(line)
        """
        root = write_proj(tmp_path, {"l.py": src})
        findings = conc_findings(monkeypatch, root, ["RPR016"])
        assert len(findings) == 1
        msg = findings[0].message
        assert "carries effect 'io'" in msg
        assert "Logger._write" in msg  # effect chain to the seed

    def test_effect_outside_lock_clean(self, tmp_path, monkeypatch):
        src = """\
            import threading

            class Logger:
                def __init__(self):
                    self._lock = threading.Lock()

                def emit(self, line):
                    with self._lock:
                        pass
                    self._write(line)

                def _write(self, line):
                    print(line)
        """
        root = write_proj(tmp_path, {"l.py": src})
        assert conc_findings(monkeypatch, root, ["RPR016"]) == []


# -- RPR006 module-scope-lock arm ---------------------------------------------

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


# -- AST memo cache -----------------------------------------------------------

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


# -- `repro races` command surface --------------------------------------------

class TestRacesCommands:
    def test_check_clean_tree_exits_zero(self, tmp_path, monkeypatch):
        root = write_proj(tmp_path, {"w.py": LOCKED_WORKER},
                          policy=BASE_POLICY)
        monkeypatch.chdir(root)
        assert races_check(["repro"],
                           echo=lambda s: None) == LINT_EXIT_CLEAN

    def test_check_racy_tree_exits_one(self, tmp_path, monkeypatch):
        root = write_proj(tmp_path, {"w.py": RACY_WORKER},
                          policy=BASE_POLICY)
        monkeypatch.chdir(root)
        out = []
        assert races_check(["repro"],
                           echo=out.append) == LINT_EXIT_FINDINGS
        assert any("RPR014" in line for line in out)

    def test_check_without_policy_is_internal_error(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = []
        assert races_check(["."], echo=out.append) == LINT_EXIT_INTERNAL

    def test_check_rejects_unresolvable_policy_names(self, tmp_path,
                                                     monkeypatch):
        policy = BASE_POLICY + """\

    [concurrency]
    entries = ["repro.w.NoSuchClass"]
"""
        root = write_proj(tmp_path, {"w.py": LOCKED_WORKER}, policy=policy)
        monkeypatch.chdir(root)
        out = []
        assert races_check(["repro"],
                           echo=out.append) == LINT_EXIT_FINDINGS
        assert any("repro.w.NoSuchClass" in line
                   and "does not resolve" in line for line in out)

    def test_show_prints_contexts_locks_and_verdicts(self, tmp_path,
                                                     monkeypatch):
        root = write_proj(tmp_path, {"w.py": LOCKED_WORKER},
                          policy=BASE_POLICY)
        monkeypatch.chdir(root)
        out = []
        assert races_show(["repro"], echo=out.append) == LINT_EXIT_CLEAN
        text = "\n".join(out)
        assert "thread:Worker._run" in text
        assert "repro.w.Worker._lock (lock)" in text
        assert "repro.w.Worker.count: guarded" in text


# -- live-tree regression -----------------------------------------------------

class TestLiveTreeRegression:
    """The committed tree is race-clean, and stays honest: removing one
    lock acquisition from ``ServeEngine.stats`` must produce RPR014."""

    def _copy_tree(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        shutil.copytree(REPO_ROOT / "src" / "repro", root / "repro")
        shutil.copy(REPO_ROOT / "ARCHITECTURE.toml",
                    root / "ARCHITECTURE.toml")
        return root

    def test_stats_lock_deletion_turns_check_red(self, tmp_path,
                                                 monkeypatch):
        root = self._copy_tree(tmp_path)
        monkeypatch.chdir(root)
        assert analyze_paths(["repro"], select=["RPR014"]) == []

        engine_py = root / "repro" / "serve" / "engine.py"
        lines = engine_py.read_text().splitlines(keepends=True)
        i = next(n for n, l in enumerate(lines)
                 if l.strip().startswith("def stats(self)"))
        j = next(n for n in range(i, len(lines))
                 if lines[n].strip() == "with self._lock:")
        indent = len(lines[j]) - len(lines[j].lstrip())
        out = lines[:j]
        k = j + 1
        while k < len(lines):
            line = lines[k]
            if line.strip() and len(line) - len(line.lstrip()) <= indent:
                break
            out.append(line[4:] if line.strip() else line)
            k += 1
        out.extend(lines[k:])
        engine_py.write_text("".join(out))

        findings = analyze_paths(["repro"], select=["RPR014"])
        assert findings, "deleting the stats lock must surface a race"
        assert all(f.rule_id == "RPR014" for f in findings)
        # the [[lock]] policy names ServeEngine._lock as the guard, so the
        # now-unlocked reads in stats violate the declared contract
        assert any("declared guarded by ServeEngine._lock" in f.message
                   and "ServeEngine.stats" in f.message for f in findings)
