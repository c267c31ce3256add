"""Self-test of the reachability census (``tests/reachability.py``) on a
toy package: the three classes, the allow-list, and the two ways a profile
hook gets lost."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reachability

TOY = '''\
def driven():
    return 1


def tested():
    return 2


def unused():
    return 3


def excused():
    return 4


def abstract():
    raise NotImplementedError


class Box:
    def __repr__(self):
        return "Box"

    @property
    def size(self):
        return 5
'''

#: run in a fresh interpreter: a recorder in this one would nest inside
#: the census's own when the census runs tier-1
RECORD = '''\
import json, sys, threading
from pathlib import Path
import reachability
recorder = reachability.Recorder()
recorder.install()
sys.setprofile(None)  # what pytest-benchmark does around its timing
import toy.mod
toy.mod.driven()
worker = threading.Thread(target=toy.mod.tested)
worker.start()
worker.join(timeout=30)
toy.mod.Box().size
recorder.uninstall()
print(json.dumps(sorted(recorder.keys(Path(sys.argv[1])))))
'''


@pytest.fixture
def toy(tmp_path) -> Path:
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(TOY)
    return package


def keys(package: Path) -> dict[str, tuple[str, int]]:
    return {item.name: (item.path, item.first)
            for item in reachability.find_defs(package)}


def test_three_classes_and_the_allow_list(toy):
    key = keys(toy)
    census = reachability.classify(
        toy, {key["toy.mod.driven"], key["toy.mod.Box.size"]},
        {key["toy.mod.driven"], key["toy.mod.tested"]},
        allow=(("toy.mod.excused", "kept for a reason"),))
    assert {item.name for item in census["driver"]} == {
        "toy.mod.driven", "toy.mod.Box.size"}
    assert [item.name for item in census["tests"]] == ["toy.mod.tested"]
    assert {item.name: item.kept for item in census["never"]} == {
        "toy.mod.unused": "",
        "toy.mod.excused": "allowed: kept for a reason",
        "toy.mod.abstract": "raise-only",
        "toy.mod.Box.__repr__": "dunder"}
    flagged = reachability.report(census, out=io.StringIO())
    assert [item.name for item in flagged] == ["toy.mod.unused"]


def test_recorder_survives_a_reset_and_follows_threads(toy):
    """A decorated def is keyed by its first decorator's line, as
    ``co_firstlineno`` is; a reset and a new thread keep recording."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(reachability.__file__).parent), str(toy.parent)]))
    done = subprocess.run([sys.executable, "-c", RECORD, str(toy)],
                          env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    reached = {tuple(item) for item in json.loads(done.stdout)}
    key = keys(toy)
    assert {key["toy.mod.driven"], key["toy.mod.tested"],
            key["toy.mod.Box.size"]} <= reached
    assert key["toy.mod.unused"] not in reached
