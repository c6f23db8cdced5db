"""Tier-1 smoke: ``scripts/reach.py`` finds the function nothing calls.

The recorder runs over a two-function fixture package: the function the
driver calls is reached, the other one is listed as reached by nothing.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_reach(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "reach_script", ROOT / "scripts" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through the module's entry
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_reach_lists_the_function_nobody_calls(tmp_path, monkeypatch):
    reach = load_reach(monkeypatch)
    package = tmp_path / "src" / "reachfixture"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "def called():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def never_called():\n"
        "    x = 2\n"
        "    return x\n")
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    monkeypatch.delitem(sys.modules, "reachfixture", raising=False)
    functions = reach.functions_in(tmp_path / "src")
    assert [(fn.qualname, fn.lines) for fn in functions] == \
        [("reachfixture:called", 2), ("reachfixture:never_called", 3)]

    recorder = reach.Recorder()
    previous = sys.getprofile()
    recorder.run(lambda: __import__("reachfixture").called())
    assert sys.getprofile() is previous        # whatever was armed is back
    hit = reach.qualnames(functions, tmp_path / "src",
                          recorder.reached(tmp_path / "src"))
    assert hit == {"reachfixture:called"}

    result = reach.Reach(functions, {d: set() for d in reach.DRIVERS})
    result.reached["tests"] = hit
    missing = reach.unreached(result, patched=set())
    assert [(fn.qualname, why) for fn, why in missing] == \
        [("reachfixture:never_called", "")]
    table = reach.render(result, patched=set())
    # functions, lines, then tests / paper / examples / e2e / analysis,
    # tests only, none
    assert "| `reachfixture` | 2 | 5 | 2 | 0 | 0 | 0 | 0 | 2 | 3 |" in table
    assert "- `reachfixture:never_called` (src/reachfixture/__init__.py:5, " \
        "3 lines)" in table


def test_keep_rules_match_qualified_names_not_bare_ones(tmp_path,
                                                        monkeypatch):
    """Two modules each define ``Base.run``; only ``a``'s is overridden
    (through a re-export), and a tracer patch of ``a.encode`` keeps
    nothing in ``b``."""
    reach = load_reach(monkeypatch)
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .a import Base\n")
    (package / "a.py").write_text(
        "class Base:\n    def run(self):\n        pass\n\n\n"
        "def encode():\n    pass\n")
    (package / "b.py").write_text(
        "class Base:\n    def run(self):\n        pass\n\n\n"
        "def encode():\n    pass\n")
    (package / "c.py").write_text(
        "from pkg import Base\n\n\n"
        "class Child(Base):\n    def run(self):\n        pass\n")
    functions = reach.functions_in(tmp_path / "src")
    result = reach.Reach(functions, {d: set() for d in reach.DRIVERS})
    missing = dict((fn.qualname, why) for fn, why in reach.unreached(
        result, patched={"pkg.a:encode"}))
    assert missing == {
        "pkg.a:Base.run": "base method a subclass overrides",
        "pkg.a:encode": "patched by name by the e2e tracer",
        "pkg.b:Base.run": "",
        "pkg.b:encode": "",
        "pkg.c:Child.run": "",
    }
