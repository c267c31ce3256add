#!/usr/bin/env python3
"""Reachability census of ``src/repro``: which defs run, and what runs them.

    PYTHONPATH=src python tests/reachability.py

Every driver runs in a child interpreter that records the code object of
every Python call, on every thread.  There are two sets of drivers:

* **driver**: what a user runs.  That is the seven ``examples/*.py``,
  every ``benchmarks/bench_*.py --quick`` (from a copy, so the committed
  ``BENCH_*.json`` stay as they are), one ``--seconds 1`` pass of each
  wall workload at ``--trace 0`` and ``--trace 1``, the tutorial's shell
  transcripts through ``Shell(out=StringIO())``, ``python -m repro`` and
  ``python -m repro monitor sqlite:...`` fed a script, and ``python -m
  repro serve`` with one client;
* **tests**: tier-1 (``pytest -x``).

Every ``def`` that ``ast`` finds under ``src/repro`` is then *reached by a
driver*, *reached only by tests* or *never reached*.  The table and the
two shorter classes, def by def, go to standard output.  The exit status
is 2 when a driver fails (the last lines of each failing driver's
standard output follow ``drivers failed``), else 1 when a def is never
reached and is not kept: a dunder, an abstract or raise-only def, or an
entry of :data:`ALLOW`.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: never-reached defs that stay: ``(dotted name, one-line reason)``
ALLOW: tuple[tuple[str, str], ...] = ()

CLASSES = ("driver", "tests", "never")
TITLES = {"driver": "reached by a driver",
          "tests": "reached only by tests",
          "never": "never reached"}


# -- recording --------------------------------------------------------------

class Recorder:
    """Records the code object of every Python call, on every thread.

    Two callers reset a profile hook behind a recorder's back:
    pytest-benchmark calls ``sys.setprofile(None)`` around its timing loop,
    and ``threading`` installs the hook of each new thread through
    ``sys.setprofile``.  While installed, ``sys.setprofile`` is replaced by
    a function that installs this recorder's hook whatever it is passed, so
    the first reset cannot switch recording off and the second still
    switches it on.
    """

    def __init__(self):
        self.codes: set = set()
        self._setprofile = None

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            self.codes.add(frame.f_code)

    def install(self) -> None:
        setprofile = self._setprofile = sys.setprofile
        hook = self._hook
        sys.setprofile = lambda function: setprofile(hook)
        threading.setprofile(hook)
        setprofile(hook)

    def uninstall(self) -> None:
        sys.setprofile = self._setprofile
        threading.setprofile(None)
        sys.setprofile(None)

    def keys(self, package: Path) -> set[tuple[str, int]]:
        """``(path relative to package's parent, co_firstlineno)`` of each
        recorded code object under ``package``."""
        prefix = str(package.resolve()) + os.sep
        base = len(str(package.resolve().parent)) + 1
        real: dict[str, str] = {}
        found = set()
        for code in list(self.codes):
            name = code.co_filename
            if name not in real:
                real[name] = os.path.realpath(name)
            if real[name].startswith(prefix):
                found.add((real[name][base:], code.co_firstlineno))
        return found


def child(out: str, argv: list[str]) -> None:
    """Child-process side: run one driver under a :class:`Recorder` and
    write what it reached to ``out`` as ``{"exit": code, "reached": [...]}``.

    ``argv`` is ``path FILE ARG...`` (a script as ``__main__``),
    ``pytest ARG...`` or ``call NAME ARG...`` (``drive_NAME(*ARG)``)."""
    kind, *args = argv
    recorder = Recorder()
    recorder.install()
    status = 0
    try:
        if kind == "path":
            sys.argv = list(args)
            runpy.run_path(args[0], run_name="__main__")
        elif kind == "pytest":
            import pytest
            status = int(pytest.main(list(args)))
        else:
            globals()[f"drive_{args[0]}"](*args[1:])
    except SystemExit as stop:
        status = stop.code if isinstance(stop.code, int) else int(
            stop.code is not None)
    finally:
        recorder.uninstall()
        reached = sorted(recorder.keys(PACKAGE))
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"exit": status, "reached": reached}, handle)


# -- the non-test drivers that are not a script -----------------------------

#: what the tutorial's prose sets up before its shell transcripts
TUTORIAL_SETUP = """
CREATE TABLE orders (okey INT NOT NULL PRIMARY KEY, customer VARCHAR(30),
                     total FLOAT);
INSERT INTO orders VALUES (1, 'ada', 120.0), (2, 'grace', 80.0),
                          (3, 'ada', 300.0);
.monitor topk 5
.monitor remediate
.stream STREAM slow_apps FROM Query.Commit GROUP BY Query.Application AS App WINDOW SLIDING(10, 2) AGG AVG(Query.Duration) AS Avg_D, COUNT(*) AS N HAVING Window.Avg_D > 0.02 AND Window.N >= 3
SELECT customer, SUM(total) FROM orders GROUP BY customer;
SELECT total FROM orders WHERE okey = 1;
UPDATE orders SET total = 0 WHERE okey = 2;
.rules
.streams
.alerts
.report
"""

#: a script piped to ``python -m repro``
SHELL_SCRIPT = """
CREATE TABLE t (a INT PRIMARY KEY, b FLOAT);
INSERT INTO t VALUES (1, 1.0), (2, 2.0);
SELECT a, b FROM t WHERE a = 1;
.rules
.lats
.help
.report
"""


def tutorial_transcript(prompt: str) -> str:
    """The lines of ``docs/tutorial.md`` typed at ``prompt``."""
    text = (ROOT / "docs" / "tutorial.md").read_text(encoding="utf-8")
    return "\n".join(line[len(prompt):] for line in text.splitlines()
                     if line.startswith(prompt))


def drive_tutorial() -> None:
    from repro.cli import Shell

    shell = Shell(out=io.StringIO())
    shell.run_script(TUTORIAL_SETUP)
    shell.run_script(tutorial_transcript("sqlcm> "))


def drive_shell(tmp: str) -> None:
    """``python -m repro`` and ``python -m repro monitor sqlite:DB`` with
    a script on standard input, and the REPL reading one."""
    from repro import cli

    for argv, script in (
            (["repro"], SHELL_SCRIPT),
            (["repro", "monitor", f"sqlite:{tmp}/app.db"],
             tutorial_transcript("sql> ") + "\n.report\n")):
        sys.argv, sys.stdin = argv, io.StringIO(script)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main()
    cli.Shell(out=io.StringIO()).repl(io.StringIO(SHELL_SCRIPT))


def drive_serve(tmp: str) -> None:
    """``python -m repro serve --durable DIR`` on a free port, the
    tutorial's client session against it, then ctrl-c."""
    import _thread

    from repro import cli
    from repro.service.client import ServiceClient

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]

    failures = []

    def session() -> None:
        try:
            for __ in range(100):
                try:
                    client = ServiceClient("127.0.0.1", port, user="ana")
                    break
                except ConnectionRefusedError:
                    time.sleep(0.1)
            else:
                raise TimeoutError(f"nothing listens on port {port}")
            with client:
                client.sql("CREATE TABLE t (id INTEGER PRIMARY KEY, "
                           "v INTEGER)")
                client.sql("INSERT INTO t (id, v) VALUES (@id, @v)",
                           params={"id": 1, "v": 10})
                client.install_stream(
                    "STREAM spikes FROM Query.Commit "
                    "WINDOW TUMBLING(1) AGG COUNT(*) AS N")
                client.subscribe("stream_alert", "incident")
                client.sql("SELECT v FROM t WHERE id = 1")
                client.status()
        except Exception as err:  # re-raised in the main thread
            failures.append(err)
        finally:
            _thread.interrupt_main()

    worker = threading.Thread(target=session)
    worker.start()
    sys.argv = ["repro", "serve", "--port", str(port),
                "--durable", f"{tmp}/serve"]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main()
        finally:
            worker.join(timeout=30)
            if failures:
                raise failures[0]


# -- running the census -----------------------------------------------------

def drivers(tmp: Path) -> list[tuple[str, str, list[str], Path]]:
    """``(class, label, child argv, working directory)`` of each driver."""
    runs = []
    for example in sorted((ROOT / "examples").glob("*.py")):
        runs.append(("driver", f"examples/{example.name}",
                     ["path", str(example)], ROOT))
    # the benches write BENCH_*.json beside their own directory
    shutil.copytree(ROOT / "benchmarks", tmp / "benchmarks",
                    ignore=shutil.ignore_patterns("wall", "__pycache__"))
    benches = sorted(map(str, (tmp / "benchmarks").glob("bench_*.py")))
    runs.append(("driver", "benchmarks/bench_*.py --quick",
                 ["pytest", *benches, "--quick", "-q", "-p",
                  "no:cacheprovider", "--rootdir", str(tmp)], tmp))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            runs.append(("driver", f"wall {workload} --trace {trace}",
                         ["path", str(ROOT / "benchmarks/wall/run.py"),
                          "--workload", workload, "--seconds", "1",
                          "--trace", trace], ROOT))
    for name in ("tutorial", "shell", "serve"):
        args = [] if name == "tutorial" else [str(tmp)]
        runs.append(("driver", name, ["call", name, *args], ROOT))
    runs.append(("tests", "tier-1",
                 ["pytest", "-x", "-q", "-p", "no:cacheprovider"], ROOT))
    return runs


#: lines of a failing driver's output the census prints
TAIL_LINES = 40


def run_child(argv: list[str], cwd: Path, out: Path
              ) -> tuple[int, set, list[str]]:
    """Exit status, reached ``(path, line)`` keys and the last
    :data:`TAIL_LINES` lines of standard output of one driver."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    boot = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import reachability\n"
            "del sys.path[0]\n"
            "reachability.child(sys.argv[2], sys.argv[3:])\n")
    done = subprocess.run(
        [sys.executable, "-c", boot, str(Path(__file__).resolve().parent),
         str(out), *argv],
        cwd=cwd, env=env, stdout=subprocess.PIPE, text=True,
        errors="replace")
    tail = done.stdout.splitlines()[-TAIL_LINES:]
    if not out.exists():
        return done.returncode or 1, set(), tail
    result = json.loads(out.read_text(encoding="utf-8"))
    return result["exit"] or done.returncode, {
        (path, line) for path, line in result["reached"]}, tail


# -- classifying ------------------------------------------------------------

@dataclass(frozen=True)
class Def:
    name: str       # dotted: module, then qualified name
    path: str       # relative to the package's parent, as Recorder keys
    first: int      # co_firstlineno: the first decorator's line, or def's
    last: int
    kept: str       # why the def may stay unreached; "" when it may not

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _raise_only(node) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    return all(isinstance(stmt, (ast.Raise, ast.Pass)) or (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        and stmt.value.value is Ellipsis) for stmt in body)


def _abstract(node) -> bool:
    return any((d.attr if isinstance(d, ast.Attribute) else
                getattr(d, "id", "")) in ("abstractmethod", "overload")
               for d in node.decorator_list)


def find_defs(package: Path) -> list[Def]:
    """Every ``def`` / ``async def`` under ``package``, nested ones too."""
    found = []
    for source in sorted(package.rglob("*.py")):
        path = source.relative_to(package.parent).as_posix()
        module = path[:-3].replace("/", ".").removesuffix(".__init__")
        tree = ast.parse(source.read_text(encoding="utf-8"), str(source))

        def visit(node, scope: str) -> None:
            for item in ast.iter_child_nodes(node):
                if isinstance(item, ast.ClassDef):
                    visit(item, f"{scope}{item.name}.")
                elif isinstance(item, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    dunder = item.name.startswith("__") \
                        and item.name.endswith("__")
                    kept = ("dunder" if dunder else
                            "abstract" if _abstract(item) else
                            "raise-only" if _raise_only(item) else "")
                    first = min([item.lineno] + [
                        d.lineno for d in item.decorator_list])
                    found.append(Def(f"{module}.{scope}{item.name}", path,
                                     first, item.end_lineno, kept))
                    visit(item, f"{scope}{item.name}.<locals>.")
                else:
                    visit(item, scope)

        visit(tree, "")
    return found


def classify(package: Path, by_driver: set, by_tests: set,
             allow=ALLOW) -> dict[str, list[Def]]:
    """Sort the defs under ``package`` into :data:`CLASSES`; a never
    reached def named in ``allow`` keeps the reason given there."""
    reasons = dict(allow)
    census: dict[str, list[Def]] = {name: [] for name in CLASSES}
    for item in find_defs(package):
        key = (item.path, item.first)
        if key in by_driver:
            census["driver"].append(item)
        elif key in by_tests:
            census["tests"].append(item)
        else:
            if not item.kept and item.name in reasons:
                item = Def(item.name, item.path, item.first, item.last,
                           f"allowed: {reasons[item.name]}")
            census["never"].append(item)
    return census


def report(census: dict[str, list[Def]], out=sys.stdout) -> list[Def]:
    """Print the table and the two shorter classes; returns the never
    reached defs that are not kept."""
    flagged = [item for item in census["never"] if not item.kept]
    print("| class | defs | lines |\n|---|---:|---:|", file=out)
    for name in CLASSES:
        print(f"| {TITLES[name]} | {len(census[name])} | "
              f"{sum(item.lines for item in census[name])} |", file=out)
    print(f"| never reached, not kept | {len(flagged)} | "
          f"{sum(item.lines for item in flagged)} |", file=out)
    for name in ("tests", "never"):
        print(f"\n{TITLES[name]}:", file=out)
        for item in census[name]:
            note = f"  [{item.kept}]" if item.kept else ""
            print(f"  {item.path}:{item.first} {item.name} "
                  f"({item.lines} lines){note}", file=out)
    return flagged


def main() -> int:
    reached = {"driver": set(), "tests": set()}
    failed = []
    tails = []
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        tmp = Path(scratch)
        for index, (kind, label, argv, cwd) in enumerate(drivers(tmp)):
            started = time.monotonic()
            status, keys, tail = run_child(argv, cwd,
                                           tmp / f"reached-{index}.json")
            reached[kind] |= keys
            print(f"# {kind:<6} {label:<40} exit {status}, "
                  f"{len(keys)} code objects, "
                  f"{time.monotonic() - started:.0f} s", flush=True)
            if status:
                failed.append(label)
                tails.append((label, status, tail))
    flagged = report(classify(PACKAGE, reached["driver"], reached["tests"]))
    if failed:
        print(f"\ndrivers failed: {', '.join(failed)}")
        for label, status, tail in tails:
            print(f"\n## {label} (exit {status}), the last {len(tail)} "
                  f"lines of its output:")
            for line in tail:
                print(f"    {line}")
        return 2
    if flagged:
        print(f"\n{len(flagged)} never-reached defs are not kept: "
              f"delete them, reach them, or add them to ALLOW")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
