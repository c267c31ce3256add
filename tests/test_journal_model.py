"""The journal against a list model.

:class:`~repro.core.durability.Journal` keeps the lines of an uncommitted
group in memory and writes the group with one write when its commit
record is appended.  The state machine below drives a real journal with
committed, uncommitted and default-commit appends, crash faults at
``durability.append`` in both modes, and tears of the file at any byte.
After every step :func:`read_journal` must return exactly the model's
committed prefix, and count as discarded exactly what the model says is
on disk past it.
"""

from __future__ import annotations

import os
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro import DatabaseServer, SQLCM
from repro.core.durability import Journal, frame, read_journal
from repro.core.resilience import FaultInjector

payloads = st.dictionaries(
    st.sampled_from(["a", "b", "~t", ""]),
    st.one_of(st.integers(-5, 5), st.text(max_size=3),
              st.floats(allow_nan=False),
              st.tuples(st.integers(0, 3), st.sampled_from([b"", b"\x00x"])),
              st.lists(st.booleans(), max_size=2)),
    max_size=3)

kinds = st.sampled_from(["lat_insert", "counts", "stream_obs", "health"])


class JournalMachine(RuleBasedStateMachine):
    """The disk is a list of chunks, each a whole line with its record or
    a torn fragment (None); the journal adds chunks only at commits, a
    partial fault and a tear."""

    @initialize()
    def open(self):
        self.directory = tempfile.mkdtemp(prefix="journal-model-")
        self.path = os.path.join(self.directory, "journal-0001.wal")
        self.sqlcm = SQLCM(DatabaseServer())
        self.sqlcm.set_fault_injector(FaultInjector(seed=0))
        self.journal = Journal([self.sqlcm])
        self.journal.rotate(self.path)
        self.callbacks = 0
        self.journal.on_commit.append(self._count_commit)
        self.disk: list[tuple[str, tuple | None]] = []
        self.waiting: list[tuple[str, tuple]] = []
        self.seq = 0
        self.commits = 0
        self.committed_records = 0
        self.dead = False
        self.fault: str | None = None  # armed mode, fires at next append

    def teardown(self):
        if hasattr(self, "journal"):
            self.journal.close()
            shutil.rmtree(self.directory, ignore_errors=True)

    def _count_commit(self):
        self.callbacks += 1

    def _model_append(self, kind, data, commit):
        if self.dead:
            return
        self.seq += 1
        line = frame(self.seq, kind, commit, self.sqlcm.server.clock.now,
                     data)
        record = (self.seq, kind, commit, data)
        if self.fault is not None:
            if self.fault == "partial":
                self.disk += self.waiting
                self.disk.append((line[: max(1, len(line) // 2)], None))
            self.waiting = []
            self.dead = True
            return
        self.waiting.append((line, record))
        if commit:
            self.disk += self.waiting
            self.committed_records += len(self.waiting)
            self.waiting = []
            self.commits += 1

    # -- steps -----------------------------------------------------------

    @rule(kind=kinds, data=payloads, commit=st.booleans())
    def append(self, kind, data, commit):
        self.journal.append(kind, data, commit=commit)
        self._model_append(kind, data, commit)

    @rule(kind=kinds, data=payloads, grouped=st.booleans(),
          dispatching=st.booleans())
    def append_default_commit(self, kind, data, grouped, dispatching):
        """No explicit flag: inside a group or a dispatch the record waits
        for the group's commit, outside both it commits alone."""
        self.journal.groups_open += grouped
        self.sqlcm._dispatching = dispatching
        try:
            self.journal.append(kind, data)
        finally:
            self.journal.groups_open -= grouped
            self.sqlcm._dispatching = False
        self._model_append(kind, data, not (grouped or dispatching))

    @rule(seconds=st.sampled_from([0.0, 0.25, 1e-9]))
    def advance(self, seconds):
        self.sqlcm.server.clock.advance(seconds)

    @precondition(lambda self: not self.dead and self.fault is None)
    @rule(mode=st.sampled_from(["exception", "partial"]))
    def inject(self, mode):
        self.sqlcm.faults.fail_next("durability.append", mode=mode)
        self.fault = mode

    @precondition(lambda self: not self.dead)
    @rule(data=st.data())
    def tear(self, data):
        """The process dies and the file is cut at any byte."""
        self.journal.close()
        text = "".join(chunk for chunk, __ in self.disk)
        cut = data.draw(st.integers(0, len(text)), label="cut")
        os.truncate(self.path, cut)  # the lines are ASCII
        kept, size = [], 0
        for chunk, record in self.disk:
            if size + len(chunk) <= cut:
                kept.append((chunk, record))
            elif size < cut:
                kept.append((chunk[: cut - size], None))
            size += len(chunk)
        self.disk, self.waiting, self.dead = kept, [], True

    # -- the property ----------------------------------------------------

    @invariant()
    def reads_the_committed_prefix(self):
        if not hasattr(self, "journal"):
            return
        readable = []
        torn = 0
        for chunk, record in self.disk:
            if record is None:
                torn = 1
                break
            readable.append(record)
        last = max((i for i, r in enumerate(readable) if r[2]), default=-1)
        records, discarded = read_journal(self.path)
        got = [(r.seq, r.kind, r.commit, r.data) for r in records]
        assert got == readable[: last + 1]
        assert discarded == len(readable) - (last + 1) + torn
        assert self.journal.records_written == self.committed_records
        assert self.callbacks == self.commits


JournalMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
TestJournalAgainstModel = JournalMachine.TestCase
