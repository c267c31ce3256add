"""The journal against a list model.

:class:`~repro.core.durability.Journal` writes each record committed, with
one write, and drops what is appended inside an entry.  The state machine
below drives a real journal with appends in and out of entries, entries,
crash faults at ``durability.append`` in both modes, and tears of the
file at any byte.  After every step :func:`read_journal` must return
exactly the model's committed prefix, and count as discarded exactly what
the model says is on disk past it.
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
from repro.core.durability import Journal, Tape, frame, read_journal
from repro.core.resilience import FaultInjector

payloads = st.dictionaries(
    st.sampled_from(["a", "b", "~t", ""]),
    st.one_of(st.integers(-5, 5), st.text(max_size=3),
              st.floats(allow_nan=False),
              st.tuples(st.integers(0, 3), st.sampled_from([b"", b"\x00x"])),
              st.lists(st.booleans(), max_size=2)),
    max_size=3)

kinds = st.sampled_from(["lat_insert", "event", "dispatch", "stream_flush",
                         "health"])


class JournalMachine(RuleBasedStateMachine):
    """The disk is a list of chunks, each a whole line with its record or
    a torn fragment (None); the journal adds a chunk at each append, a
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
        self.seq = 0
        self.commits = 0
        self.dead = False
        self.fault: str | None = None  # armed mode, fires at next append

    def teardown(self):
        if hasattr(self, "journal"):
            self.journal.close()
            shutil.rmtree(self.directory, ignore_errors=True)

    def _count_commit(self):
        self.callbacks += 1

    def _model_append(self, kind, data):
        if self.dead:
            return
        self.seq += 1
        line = frame(self.seq, kind, True, self.sqlcm.server.clock.now,
                     data)
        if self.fault is not None:
            if self.fault == "partial":
                self.disk.append((line[: max(1, len(line) // 2)], None))
            self.dead = True
            return
        self.disk.append((line, (self.seq, kind, True, data)))
        self.commits += 1

    # -- steps -----------------------------------------------------------

    @rule(kind=kinds, data=payloads, in_entry=st.booleans())
    def append(self, kind, data, in_entry):
        """Outside every entry the record commits alone; inside an entry
        it is dropped, since the entry's own record stands for everything
        the entry did."""
        if in_entry:
            self.journal.tape = Tape(self.sqlcm)
        try:
            self.journal.append(kind, data)
        finally:
            self.journal.tape = None
        if not in_entry:
            self._model_append(kind, data)

    @rule(kind=kinds, data=payloads, changed=st.booleans(),
          inner=st.booleans())
    def entry(self, kind, data, changed, inner):
        """An entry writes one committed record, and only when it did
        something; what it appends itself never reaches the file."""
        def run():
            if inner:
                self.journal.append("health", {"inner": 1})
            return changed
        self.journal.entry(kind, data, run)
        if changed:
            self._model_append(kind, data)

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
        self.disk, self.dead = kept, True

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
        assert self.journal.records_written == self.commits
        assert self.callbacks == self.commits


JournalMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
TestJournalAgainstModel = JournalMachine.TestCase
