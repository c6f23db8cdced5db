#!/usr/bin/env python3
"""Which ``src/`` functions each driver reaches: a ``sys.setprofile`` map.

Every function and method defined under ``src/`` (lambdas and
comprehensions count as lines of the function around them) is matched
to the code objects a profiler sees called while a driver runs.  The
drivers, each run in a child process of its own:

``tests``     the unit and scenario suite, ``pytest tests/``
``paper``     the paper experiments, ``pytest benchmarks/``
``examples``  every ``examples/*.py`` as ``__main__``
``e2e``       the four ``benchmarks/e2e`` workloads in driver form
``analysis``  ``python -m repro.analysis src/``

Under pytest the recorder is re-armed before every test phase, because
some tests install a profile or trace hook of their own.  Code that
runs in a grandchild process (a test that spawns a script) is not seen.

Usage: ``python scripts/reach.py``.  It runs every driver, writes
``docs/REACH.md`` and exits 1 when a function outside the keep rules
(``KEEP`` and ``kept``) is reached by no driver.  The ``tests`` driver takes several minutes under the profiler, so this
is a nightly job, not part of tier-1.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DRIVERS = ("tests", "paper", "examples", "e2e", "analysis")
E2E_WORKLOADS = ("steady_pipeline", "wide_fanout", "fault_storm",
                 "archive_mixed")

#: functions allowed to be reached by no driver, each with its reason.
#: Functions the e2e tracer patches (``_boundaries()`` and ``_CODEC`` in
#: ``benchmarks/e2e/tracer.py``), dunders, ``# pragma: no cover``
#: functions and methods a subclass in ``src/`` overrides are kept
#: without being listed here.
KEEP = {
    "repro.simgrid.sockets:discard":
        "identity sentinel: the transport compares handlers against it",
    "repro.simgrid.faults:FaultPlan.describe":
        "error-path reporter: prints a failing plan",
    "repro.simgrid.faults:FaultPlan.link_up":
        "the plan builder of a documented fault kind (docs/FAULTS.md)",
    "repro.core.directory.entry:DN.rdn":
        "sensor_key_for's fallback for an entry with no sensor key",
    "repro.core.consumers.procmon:EmailAction.run":
        "a procmon action examples/fault_detection.py configures; it "
        "runs only when a watched process dies",
}


@dataclass
class Function:
    """One ``def`` under ``src/``: its qualified name, where it starts
    (the first decorator's line, as ``co_firstlineno`` counts), and the
    lines it owns — its span minus the spans of functions inside it."""

    qualname: str
    path: str
    first: int
    lines: int = 0
    #: the function is a method some subclass in src/ overrides
    overridden: bool = False
    no_cover: bool = False

    @property
    def module(self) -> str:
        return self.qualname.split(":")[0]

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1].split(":")[-1]


@dataclass
class Reach:
    functions: list[Function]
    #: driver -> qualified names it reached
    reached: dict[str, set[str]] = field(default_factory=dict)


def module_name(path: Path, root: Path) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def functions_in(root: Path) -> list[Function]:
    """Every function and method defined in the ``*.py`` files under
    ``root`` (a directory holding packages, like ``src/``)."""
    found: list[Function] = []
    # "module:Class" -> (bases as (module, name) references, method
    # names), to spot overridden methods
    classes: dict[str, tuple[list[tuple[str, str]], set[str]]] = {}
    # module -> local name -> (module, name) it was imported from; the
    # name is "" for an imported module
    imports: dict[str, dict[str, tuple[str, str]]] = {}
    methods: list[tuple[str, Function]] = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        module = module_name(path, root)
        imports[module] = _imports(tree, module, path.name == "__init__.py")
        lines = text.splitlines()
        owner: dict[int, Function] = {}

        def base_ref(base: ast.expr) -> tuple[str, str]:
            if isinstance(base, ast.Name):
                return module, base.id
            if isinstance(base, ast.Attribute) and isinstance(
                    base.value, ast.Name):
                src, name = imports[module].get(base.value.id, ("", ""))
                return (f"{src}.{name}" if name else src), base.attr
            return "", ""

        def visit(node: ast.AST, prefix: str, cls: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    key = f"{module}:{prefix}{child.name}"
                    names = {n.name for n in child.body if isinstance(
                        n, (ast.FunctionDef, ast.AsyncFunctionDef))}
                    classes[key] = ([base_ref(b) for b in child.bases],
                                    names)
                    visit(child, f"{prefix}{child.name}.", key)
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    header = lines[child.lineno - 1]
                    fn = Function(f"{module}:{prefix}{child.name}",
                                  str(path.relative_to(root.parent)), first,
                                  no_cover="pragma: no cover" in header)
                    # innermost function wins: parents are visited first
                    for line in range(first, child.end_lineno + 1):
                        owner[line] = fn
                    found.append(fn)
                    if cls is not None:
                        methods.append((cls, fn))
                    visit(child, f"{prefix}{child.name}.<locals>.", None)
                else:
                    visit(child, prefix, cls)

        visit(tree, "", None)
        for fn in owner.values():
            fn.lines += 1

    def resolve(module: str, name: str) -> str | None:
        """The ``module:Class`` key a name in ``module`` stands for,
        following imports and re-exports; None outside ``root``."""
        seen: set[tuple[str, str]] = set()
        while name and (module, name) not in seen:
            if f"{module}:{name}" in classes:
                return f"{module}:{name}"
            seen.add((module, name))
            module, name = imports.get(module, {}).get(name, ("", ""))
        return None

    subclasses: dict[str, list[str]] = {}
    for key, (bases, _names) in classes.items():
        for base in bases:
            target = resolve(*base)
            if target is not None:
                subclasses.setdefault(target, []).append(key)
    for cls, fn in methods:
        todo, seen = list(subclasses.get(cls, ())), set()
        while todo:
            sub = todo.pop()
            if sub in seen:
                continue
            seen.add(sub)
            if fn.name in classes[sub][1]:
                fn.overridden = True
                break
            todo.extend(subclasses.get(sub, ()))
    return found


def _imports(tree: ast.Module, module: str,
             package: bool) -> dict[str, tuple[str, str]]:
    """Local name -> ``(module, name)`` for every import in ``tree``
    (anywhere in it: a function may import lazily)."""
    here = module.split(".") if package else module.split(".")[:-1]
    names: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = here[:len(here) - node.level + 1] if node.level else []
            src = ".".join(parts + ([node.module] if node.module else []))
            for alias in node.names:
                names.setdefault(alias.asname or alias.name,
                                 (src, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names.setdefault(alias.asname, (alias.name, ""))
                else:
                    top = alias.name.split(".")[0]
                    names.setdefault(top, (top, ""))
    return names


# ---------------------------------------------------------------------------
# recording (runs in the driver's child process)
# ---------------------------------------------------------------------------


class Recorder:
    """Collects every code object that starts running while armed."""

    def __init__(self) -> None:
        self.codes: set = set()
        add = self.codes.add

        def profile(frame, event, _arg) -> None:
            if event == "call":
                add(frame.f_code)
        self.profile = profile

    def arm(self) -> None:
        sys.setprofile(self.profile)

    def run(self, body: Callable[[], object]) -> None:
        """Run ``body`` armed, restoring whatever profile was set."""
        previous = sys.getprofile()
        self.arm()
        try:
            body()
        finally:
            sys.setprofile(previous)

    def reached(self, root: Path) -> set[tuple[str, int]]:
        """``(file, first line)`` of every recorded code object under
        ``root``."""
        prefix = str(root.resolve()) + os.sep
        return {(code.co_filename, code.co_firstlineno)
                for code in self.codes
                if code.co_filename.startswith(prefix)}


def qualnames(functions: Iterable[Function], root: Path,
              reached: Iterable[tuple[str, int]]) -> set[str]:
    """The functions whose ``(file, first line)`` was reached."""
    by_place = {(str((root.parent / fn.path).resolve()), fn.first):
                fn.qualname for fn in functions}
    return {by_place[place] for place in reached if place in by_place}


def _run_main(argv: list[str], body: Callable[[], object]) -> None:
    """Run a script body with ``sys.argv`` set, tolerating its exit."""
    saved = sys.argv
    sys.argv = argv
    try:
        body()
    except SystemExit as exc:
        if exc.code not in (0, None):
            print(f"reach: {argv[0]} exited {exc.code}", file=sys.stderr)
    finally:
        sys.argv = saved


def _pytest(recorder: Recorder, args: list[str]) -> None:
    import pytest

    class Rearm:
        """Re-arm before every phase: a test may swap the hook out."""

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            recorder.arm()

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_call(self, item):
            recorder.arm()

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_teardown(self, item):
            recorder.arm()

    code = pytest.main(["-q", "-p", "no:cacheprovider", *args],
                       plugins=[Rearm()])
    if code not in (0, 5):
        print(f"reach: pytest {' '.join(args)} exited {int(code)}",
              file=sys.stderr)


def drive(driver: str, recorder: Recorder) -> None:
    """Run one driver in this process under ``recorder``."""
    import runpy
    os.chdir(ROOT)
    if driver == "tests":
        recorder.run(lambda: _pytest(recorder, ["tests"]))
    elif driver == "paper":
        recorder.run(lambda: _pytest(recorder, ["benchmarks"]))
    elif driver == "examples":
        for path in sorted((ROOT / "examples").glob("*.py")):
            recorder.run(lambda: _run_main(
                [str(path)],
                lambda: runpy.run_path(str(path), run_name="__main__")))
    elif driver == "e2e":
        run_py = ROOT / "benchmarks" / "e2e" / "run.py"
        for workload in E2E_WORKLOADS:
            argv = [str(run_py), "--workload", workload, "--seconds", "1",
                    "--trace", "0"]
            recorder.run(lambda: _run_main(
                argv, lambda: runpy.run_path(str(run_py),
                                             run_name="__main__")))
    elif driver == "analysis":
        recorder.run(lambda: _run_main(
            ["repro.analysis", str(SRC)],
            lambda: runpy.run_module("repro.analysis", run_name="__main__",
                                     alter_sys=True)))
    else:
        raise SystemExit(f"reach: unknown driver {driver!r}")


def record_driver(driver: str, dump: Path) -> None:
    """Child-process entry: run one driver, dump what it reached."""
    sys.path.insert(0, str(SRC))
    recorder = Recorder()
    drive(driver, recorder)
    dump.write_text(json.dumps(sorted(recorder.reached(SRC))))


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


def kept(fn: Function, patched: set[str]) -> str | None:
    """Why ``fn`` may go unreached, or None."""
    if fn.qualname in KEEP:
        return KEEP[fn.qualname]
    if fn.name.startswith("__") and fn.name.endswith("__"):
        return "dunder"
    if fn.no_cover:
        return "pragma: no cover"
    if fn.overridden:
        return "base method a subclass overrides"
    if fn.qualname in patched:
        return "patched by name by the e2e tracer"
    return None


def tracer_patch_names() -> set[str]:
    """``module:Owner.attr`` for every tracer boundary, plus the
    ``module:function`` each codec name of ``repro.ulm`` resolves to."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro.ulm as ulm
    from benchmarks.e2e import tracer
    names = {f"{owner.__module__}:{owner.__qualname__}.{attr}"
             for owner, attr, _name, _where in tracer._boundaries()}
    for attr, _name, _where in tracer._CODEC:
        fn = getattr(ulm, attr)
        names.add(f"{fn.__module__}:{fn.__qualname__}")
    return names


def unreached(reach: Reach, patched: set[str]) -> list[tuple[Function, str]]:
    """Functions no driver reached, each with its keep reason ("" when
    nothing keeps it)."""
    hit = set().union(*reach.reached.values())
    return [(fn, kept(fn, patched) or "") for fn in reach.functions
            if fn.qualname not in hit]


def render(reach: Reach, patched: set[str]) -> str:
    hit_any = set().union(*reach.reached.values())
    not_tests = set().union(*(reach.reached[d] for d in DRIVERS
                              if d != "tests"))
    rows: dict[str, dict] = {}
    for fn in reach.functions:
        row = rows.setdefault(fn.module, {"fns": 0, "lines": 0, "none": 0,
                                          "tests_only": 0,
                                          **{d: 0 for d in DRIVERS}})
        row["fns"] += 1
        row["lines"] += fn.lines
        for d in DRIVERS:
            if fn.qualname in reach.reached[d]:
                row[d] += fn.lines
        if fn.qualname not in hit_any:
            row["none"] += fn.lines
        elif fn.qualname not in not_tests:
            row["tests_only"] += fn.lines
    out = ["# Reach map of `src/`", "",
           "Generated by `python scripts/reach.py`; do not edit by hand.",
           "Each row is one module: how many of the lines inside its",
           "functions (a nested function's lines are its own, not its",
           "parent's) belong to a function each driver calls at least once.",
           "`tests only` counts lines no driver but `tests` reaches;",
           "`none` counts lines no driver reaches.  Drivers: " +
           ", ".join(f"`{d}`" for d in DRIVERS) + ".", ""]
    header = ["module", "functions", "lines", *DRIVERS, "tests only", "none"]
    out.append("| " + " | ".join(header) + " |")
    out.append("|" + "---|" * len(header))
    total = {k: 0 for k in ("fns", "lines", "none", "tests_only", *DRIVERS)}
    for module in sorted(rows):
        row = rows[module]
        for k in total:
            total[k] += row[k]
        out.append("| " + " | ".join(
            [f"`{module}`", str(row["fns"]), str(row["lines"]),
             *(str(row[d]) for d in DRIVERS), str(row["tests_only"]),
             str(row["none"])]) + " |")
    out.append("| **total** | " + " | ".join(
        [str(total["fns"]), str(total["lines"]),
         *(str(total[d]) for d in DRIVERS), str(total["tests_only"]),
         str(total["none"])]) + " |")
    missing = unreached(reach, patched)
    out += ["", "## Functions no driver reaches", ""]
    if not missing:
        out.append("None.")
    for fn, reason in missing:
        out.append(f"- `{fn.qualname}` ({fn.path}:{fn.first}, "
                   f"{fn.lines} lines)" + (f" — kept: {reason}"
                                           if reason else ""))
    return "\n".join(out) + "\n"


def collect() -> Reach:
    reach = Reach(functions_in(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        for driver in DRIVERS:
            dump = Path(tmp) / f"{driver}.json"
            print(f"reach: running {driver}", file=sys.stderr, flush=True)
            subprocess.run([sys.executable, __file__, "--record", driver,
                            str(dump)], cwd=ROOT, check=False,
                           stdout=subprocess.DEVNULL)
            places = json.loads(dump.read_text()) if dump.exists() else []
            if not places:
                raise SystemExit(f"reach: driver {driver} recorded nothing")
            reach.reached[driver] = qualnames(
                reach.functions, SRC, (tuple(p) for p in places))
    return reach


def main(argv: list[str]) -> int:
    if argv[:1] == ["--record"] and len(argv) == 3:
        # the child process of one driver (see ``collect``)
        record_driver(argv[1], Path(argv[2]))
        return 0
    if argv:
        raise SystemExit("usage: python scripts/reach.py")
    reach = collect()
    patched = tracer_patch_names()
    out = ROOT / "docs" / "REACH.md"
    out.write_text(render(reach, patched), encoding="utf-8")
    dead = [fn for fn, reason in unreached(reach, patched) if not reason]
    print(f"reach: {len(reach.functions)} functions, "
          f"{len(dead)} reached by no driver and not kept; wrote {out}",
          file=sys.stderr)
    for fn in dead:
        print(f"  {fn.qualname} ({fn.path}:{fn.first})", file=sys.stderr)
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
