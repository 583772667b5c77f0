"""Tests for the call graph and the architecture policy.

Covers the call graph (repro.analysis.callgraph), the layer rule RPR008
(repro.analysis.policy) with true-positive / false-positive guard
pairs, the ``repro arch`` commands and the ``repro lint`` exit-code
contract — plus the check that the repo itself is clean under the
committed ARCHITECTURE.toml.  The layers' effect budgets are checked at
run time, in tests/test_effect_budgets.py.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.callgraph import build_callgraph, module_name_for
from repro.analysis.commands import arch_graph, arch_show, graph_as_json
from repro.analysis.framework import ModuleContext, analyze_paths
from repro.analysis.lint import (
    LINT_EXIT_CLEAN,
    LINT_EXIT_FINDINGS,
    LINT_EXIT_INTERNAL,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
REPO_SRC = REPO_ROOT / "src" / "repro"

ARCH_RULES = ["RPR008"]


def ctx(path, src):
    return ModuleContext.parse(src, path)


def graph_of(*mods):
    """Build a call graph from ``(relpath_under_repro, source)`` pairs."""
    return build_callgraph(
        [ctx(f"/scratch/repro/{rel}", src) for rel, src in mods]
    )


class TestModuleNaming:
    def test_anchors_at_last_root_dir(self):
        assert module_name_for("src/repro/perf/raycast.py") == \
            "repro.perf.raycast"
        assert module_name_for("/tmp/x/repro/kfusion/a.py") == \
            "repro.kfusion.a"

    def test_init_names_the_package(self):
        assert module_name_for("src/repro/perf/__init__.py") == "repro.perf"

    def test_outside_root_is_none(self):
        assert module_name_for("src/other/a.py") is None
        assert module_name_for("src/repro/notes.txt") is None


class TestCallGraph:
    def test_cross_module_call_resolved_through_alias(self):
        g = graph_of(
            ("a.py", "from . import b as helper\ndef f():\n"
                     "    return helper.g()\n"),
            ("b.py", "def g():\n    return 1\n"),
        )
        assert g.functions["repro.a.f"].calls == {"repro.b.g"}

    def test_reexport_chain_followed(self):
        g = graph_of(
            ("pkg/__init__.py", "from .impl import work\n"),
            ("pkg/impl.py", "def work():\n    return 1\n"),
            ("use.py", "from . import pkg\ndef f():\n"
                       "    return pkg.work()\n"),
        )
        assert g.functions["repro.use.f"].calls == {"repro.pkg.impl.work"}

    def test_self_method_attributed_to_class(self):
        g = graph_of(("a.py", (
            "class C:\n"
            "    def f(self):\n"
            "        return self.g()\n"
            "    def g(self):\n"
            "        return 1\n"
        )))
        assert g.functions["repro.a.C.f"].calls == {"repro.a.C.g"}

    def test_constructor_resolves_to_init(self):
        g = graph_of(("a.py", (
            "class C:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
            "def f():\n"
            "    return C()\n"
        )))
        assert g.functions["repro.a.f"].calls == {"repro.a.C.__init__"}

    def test_unattributable_call_recorded_not_dropped(self):
        g = graph_of(("a.py", "def f(x):\n    return x.compute()\n"))
        node = g.functions["repro.a.f"]
        assert not node.calls
        assert [c.target for c in node.unresolved] == ["x.compute"]

    def test_external_call_recorded(self):
        g = graph_of(("a.py", "import math\ndef f():\n"
                              "    return math.sqrt(2)\n"))
        node = g.functions["repro.a.f"]
        assert [c.target for c in node.external] == ["math.sqrt"]

    def test_module_body_pseudo_function(self):
        g = graph_of(("a.py", "def f():\n    return 1\nX = f()\n"))
        assert g.functions["repro.a.<module>"].calls == {"repro.a.f"}


BASE_POLICY = """\
version = 1
root = "repro"

[[layer]]
name = "kernels"
packages = ["repro.kern"]
forbid = ["io"]

[[layer]]
name = "top"
packages = ["repro", "repro.top"]
"""


def write_tree(tmp_path, policy, files):
    """Scratch project: ``ARCHITECTURE.toml`` + files under ``repro/``."""
    root = tmp_path / "proj"
    (root / "repro").mkdir(parents=True)
    (root / "ARCHITECTURE.toml").write_text(policy)
    for rel, src in files.items():
        p = root / "repro" / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(src)
    return root


def arch_findings(monkeypatch, root, select=None):
    monkeypatch.chdir(root)
    return analyze_paths(["repro"], select=select or ARCH_RULES)


class TestLayerDiscipline:
    def test_upward_import_flagged(self, tmp_path, monkeypatch):
        root = write_tree(tmp_path, BASE_POLICY, {
            "kern.py": "from . import top\ndef f():\n    return top.g\n",
            "top.py": "def g():\n    return 1\n",
        })
        findings = arch_findings(monkeypatch, root, ["RPR008"])
        assert len(findings) == 1
        assert "imports" in findings[0].message
        assert "repro.top" in findings[0].message

    def test_downward_import_clean(self, tmp_path, monkeypatch):
        root = write_tree(tmp_path, BASE_POLICY, {
            "kern.py": "def f():\n    return 1\n",
            "top.py": "from . import kern\ndef g():\n"
                      "    return kern.f()\n",
        })
        assert arch_findings(monkeypatch, root, ["RPR008"]) == []

    def test_uncovered_module_flagged(self, tmp_path, monkeypatch):
        root = write_tree(tmp_path, BASE_POLICY, {
            "rogue/x.py": "def f():\n    return 1\n",
        })
        findings = arch_findings(monkeypatch, root, ["RPR008"])
        assert any("not covered by any layer" in f.message for f in findings)

    def test_toml_waiver_suppresses_edge(self, tmp_path, monkeypatch):
        policy = BASE_POLICY + (
            '\n[[waiver]]\nrule = "RPR008"\n'
            'from = "repro.kern"\nto = "repro.top"\n'
            'reason = "documented seam"\n'
        )
        root = write_tree(tmp_path, policy, {
            "kern.py": "from . import top\ndef f():\n    return top.g\n",
            "top.py": "def g():\n    return 1\n",
        })
        assert arch_findings(monkeypatch, root, ["RPR008"]) == []


class TestLintExitContract:
    def test_clean_exits_zero(self, tmp_path):
        f = tmp_path / "ok.py"
        f.write_text("x = 1\n")
        assert run_lint([str(f)], echo=lambda s: None) == LINT_EXIT_CLEAN

    def test_findings_exit_one(self, tmp_path):
        f = tmp_path / "bad.py"
        f.write_text("import time\nt = time.time()\n")
        assert run_lint([str(f)], echo=lambda s: None) == LINT_EXIT_FINDINGS

    def test_bad_path_is_internal_error(self):
        out = []
        assert run_lint(["no/such/dir"],
                        echo=out.append) == LINT_EXIT_INTERNAL
        assert "internal error" in out[0]


class TestArchCommands:
    def test_show_prints_layers(self, tmp_path, monkeypatch):
        root = write_tree(tmp_path, BASE_POLICY, {})
        monkeypatch.chdir(root)
        out = []
        assert arch_show(echo=out.append) == LINT_EXIT_CLEAN
        text = "\n".join(out)
        assert "kernels" in text and "top" in text

    def test_graph_json_and_dot(self, tmp_path, monkeypatch):
        root = write_tree(tmp_path, BASE_POLICY, {
            "kern.py": "def f():\n    return 1\n",
            "top.py": "from . import kern\ndef g():\n"
                      "    return kern.f()\n",
        })
        monkeypatch.chdir(root)
        out = []
        assert arch_graph(["repro"], output_format="json",
                          echo=out.append) == LINT_EXIT_CLEAN
        doc = json.loads("\n".join(out))
        assert ["repro.top", "repro.kern"] in doc["edges"]
        out = []
        assert arch_graph(["repro"], output_format="dot",
                          echo=out.append) == LINT_EXIT_CLEAN
        dot = "\n".join(out)
        assert dot.startswith("digraph")
        assert '"repro.top" -> "repro.kern";' in dot

    def test_function_granularity_graph(self, tmp_path, monkeypatch):
        root = write_tree(tmp_path, BASE_POLICY, {
            "top.py": "def g():\n    return 1\n",
        })
        monkeypatch.chdir(root)
        g = build_callgraph([ctx(str(root / "repro" / "top.py"),
                                 (root / "repro" / "top.py").read_text())])
        doc = graph_as_json(g, "function")
        assert "repro.top.g" in doc["functions"]


class TestPolicyParser:
    def test_fallback_parser_matches_committed_policy(self):
        # The CI floor is a python without tomllib; the fallback
        # TOML-subset parser must read the committed policy identically.
        from repro.analysis.policy import _parse_toml_subset

        text = (REPO_ROOT / "ARCHITECTURE.toml").read_text()
        doc = _parse_toml_subset(text)
        assert doc["version"] == 1 and doc["root"] == "repro"
        assert any(layer["name"] == "kernels" for layer in doc["layer"])
        tomllib = pytest.importorskip("tomllib")
        assert doc == tomllib.loads(text)


class TestProgramModel:
    def test_one_lint_run_builds_the_call_graph_once(self, monkeypatch):
        from repro.analysis import callgraph, framework

        monkeypatch.chdir(REPO_ROOT)
        # a cold run: fresh contexts carry no cached program model
        monkeypatch.setattr(framework, "_AST_CACHE", {})
        builds = []
        init = callgraph.CallGraph.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(callgraph.CallGraph, "__init__", counting_init)
        analyze_paths(["src/repro"])
        assert len(builds) == 1


class TestRepoIsClean:
    """The repo itself must satisfy its own committed architecture."""

    def test_arch_rules_clean_on_repo(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert analyze_paths([str(REPO_SRC)], select=ARCH_RULES) == []
