"""One declared state schema for the monitor, and the codec it drives.

The monitor's durable state is a short, enumerable list of fields.  Each
owning module declares its fields once, and every consumer — the record
payloads of journal and checkpoint, the state digest, the shard merge —
reads that one declaration through this module:

* a **dataclass** record (``RuleHealth``, ``Incident``, ``DeadLetter``,
  ``LATDefinition`` …) is its own declaration: every field is durable
  unless marked ``field(metadata=TRANSIENT)``; ``mark(op, element)``
  names a merge-op other than :func:`first`, or the record class of a
  nested record / a collection's elements;
* any other **holder** (``LAT``, ``OverloadGovernor``, ``SQLCM`` …) has
  one class-level ``STATE`` tuple of ``(field, merge-op[, element])``
  entries; attributes outside its image are listed by :func:`transient`
  (rebuilt, never saved) or :func:`walked` (saved piece by piece by the
  walk in :mod:`repro.core.durability`: rows, panes, child holders).

A merge-op folds one field across a sequence of holders — the monitors
of a sharded replay.  A serial monitor is the one-element sequence,
for which :func:`fold` returns the live values themselves (no copy).
Field lists are resolved once per class (:func:`schema`); per-row and
per-pane aggregate states keep the direct tagged encodings below.
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from functools import lru_cache
from typing import Any, Callable, NamedTuple, Sequence

from repro.core.aggregates import AgingSpec, AgingState, FirstAgg, LastAgg

# ---------------------------------------------------------------------------
# the codec: everything on disk round-trips through dumps/loads, one line of
# tagged JSON per value
# ---------------------------------------------------------------------------

#: JSON carries these as themselves (inf and nan as ``Infinity``/``NaN``);
#: the container branches below pass them without a call, because this
#: walk is the hot loop of every journal append and every checkpoint
_SCALARS = frozenset((type(None), bool, int, float, str))


def _tagged(value: Any) -> Any:
    """``value`` as JSON data, with a one-key tag object for each thing
    JSON has no form of: ``{"~t": [...]}`` a tuple, ``{"~b": hex}`` bytes,
    ``{"~d": [[key, value], ...]}`` a dict whose keys are not all plain
    strings (a non-``str`` key, or one starting with ``~``)."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is tuple:
        return {"~t": [v if type(v) in _SCALARS else _tagged(v)
                       for v in value]}
    if kind is list or kind is deque:
        return [v if type(v) in _SCALARS else _tagged(v) for v in value]
    if kind is dict:
        for key in value:
            if type(key) is not str or key[:1] == "~":
                return {"~d": [[_tagged(k), _tagged(v)]
                               for k, v in value.items()]}
        return {k: v if type(v) in _SCALARS else _tagged(v)
                for k, v in value.items()}
    if kind is bytes:
        return {"~b": value.hex()}
    # subclasses of the types above travel as their base type
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (list, deque)):
        return [_tagged(v) for v in value]
    if isinstance(value, tuple):
        return _tagged(tuple(value))
    if isinstance(value, dict):
        return _tagged(dict(value))
    if isinstance(value, (set, frozenset)):
        return [_tagged(v) for v in sorted(value)]
    if dataclasses.is_dataclass(value):
        return _tagged(fold([value]))  # a state record: its image
    return str(value)


#: what each tag object decodes to
_UNTAG: dict[str, Callable] = {"~t": tuple, "~d": dict, "~b": bytes.fromhex}


def _untagged(obj: dict) -> Any:
    """The decoder's object hook: a tag object back to its value (a plain
    object with one ``~`` key cannot occur, :func:`_tagged` tags it)."""
    if len(obj) == 1:
        (key, value), = obj.items()
        untag = _UNTAG.get(key)
        if untag is not None:
            return untag(value)
    return obj


_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)
_DECODER = json.JSONDecoder(object_hook=_untagged)


def dumps(value: Any) -> str:
    """One line of tagged JSON that :func:`loads` reads back as ``value``:
    tuples, bytes, non-``str`` dict keys and non-finite floats included.
    Sets come back as sorted lists and state records as their ``fold``
    image; :func:`load` rebuilds both."""
    return _ENCODER.encode(_tagged(value))


def loads(text: str) -> Any:
    """Read back :func:`dumps` (one C decoder call; raises ValueError)."""
    return _DECODER.decode(text)


# FIRST/LAST carry class-level "no value yet" sentinels that the codec cannot
# round-trip; aging aggregates carry block deques.  States are encoded as
# small tagged lists (raw states are never lists, so the tag is unambiguous):
# ["V", value] plain, ["E"] empty sentinel, ["A", [(block_start, enc), ...]];
# the values inside are encoded with the rest of the record.
_EMPTY_SENTINELS = (FirstAgg._EMPTY, LastAgg._EMPTY)


def enc_plain(state: Any) -> list:
    for sentinel in _EMPTY_SENTINELS:
        if state is sentinel:
            return ["E"]
    return ["V", state]


def dec_plain(enc: list, func) -> Any:
    if enc[0] == "E":
        return func.new_state()
    value = enc[1]
    return tuple(value) if isinstance(value, list) else value


def enc_state(state: Any) -> list:
    if isinstance(state, AgingState):
        return ["A", [(start, enc_plain(block))
                      for start, block in state.blocks]]
    return enc_plain(state)


def dec_state(enc: list, func, aging: AgingSpec | None) -> Any:
    if enc[0] == "A":
        state = AgingState(func, aging)
        state.blocks.extend((start, dec_plain(block, func))
                            for start, block in enc[1])
        return state
    return dec_plain(enc, func)


# ---------------------------------------------------------------------------
# merge-ops (how one field folds across holders; counters use builtin sum)
# and the declaration helpers of the owning modules
# ---------------------------------------------------------------------------


def first(values: Sequence) -> Any:
    """The control shard's value: registrations and supervisory state."""
    return values[0]


def dict_total(values: Sequence[dict]) -> dict:
    folded: dict = {}
    for counts in values:
        for key, count in counts.items():
            folded[key] = folded.get(key, 0) + count
    return folded


#: ``field(metadata=TRANSIENT)``: live references a record cannot save
TRANSIENT = {"state": None}


def mark(op: Callable = first, element: Any = None) -> dict:
    """``field(metadata=mark(...))``: a non-default merge-op and/or the
    class a nested record (or each element of a collection) is rebuilt as."""
    return {"state": (op, element)}


def fields(op: Callable | None, *names: str) -> tuple:
    """``STATE`` entries for several attributes sharing one merge-op."""
    return tuple((name, op) for name in names)


def transient(*names: str) -> tuple:
    """``STATE`` entries for attributes that are rebuilt, never saved."""
    return fields(None, *names)


#: ``STATE`` entries for durable attributes the checkpoint walk saves piece
#: by piece rather than as one field of the holder's image
walked = transient


class Field(NamedTuple):
    name: str
    op: Callable
    element: Any = None
    like: Any = None  # a dataclass field's default (its container type)


@lru_cache(maxsize=None)
def schema(cls: type) -> tuple[Field, ...]:
    """The durable fields of a state class, resolved once per class."""
    if not dataclasses.is_dataclass(cls):
        return tuple(Field(*entry) for entry in cls.STATE
                     if entry[1] is not None)
    resolved = []
    for f in dataclasses.fields(cls):
        spec = f.metadata.get("state", (first, None))
        if spec is not None:
            like = (f.default_factory()
                    if f.default_factory is not dataclasses.MISSING
                    else f.default)
            resolved.append(Field(f.name, *spec, like))
    return tuple(resolved)


# ---------------------------------------------------------------------------
# the walk: fold, load
# ---------------------------------------------------------------------------


def fold(holders: Sequence) -> dict[str, Any]:
    """Each declared field folded across ``holders`` with its merge-op."""
    declared = schema(type(holders[0]))
    if len(holders) == 1:
        return {f.name: getattr(holders[0], f.name) for f in declared}
    return {f.name: f.op([getattr(h, f.name) for h in holders])
            for f in declared}


def _decode(image: Any, like: Any, element: Any) -> Any:
    """Rebuild one field from its image; ``like`` (the value a fresh holder
    carries) names the container type the encoded form lost."""
    if element is not None and image is not None:
        build = ((lambda item: load(element, item))
                 if dataclasses.is_dataclass(element) else element)
        if isinstance(like, dict):
            return {key: build(item) for key, item in image.items()}
        if isinstance(image, dict):
            return build(image)  # one nested record, not a collection
        image = [build(item) for item in image]
    if isinstance(like, deque):
        return deque(image, like.maxlen)
    return set(image) if isinstance(like, set) else image


def load(cls: type, image: dict, **extra: Any) -> Any:
    """Build a dataclass record from its image (``extra`` supplies fields
    the image does not carry)."""
    values = {f.name: _decode(image[f.name], f.like, f.element)
              for f in schema(cls) if f.name in image}
    return cls(**values, **extra)


def load_into(holder: Any, image: dict) -> Any:
    """Apply an image to a live holder, field by declared field."""
    for f in schema(type(holder)):
        if f.name in image:
            setattr(holder, f.name,
                    _decode(image[f.name], getattr(holder, f.name, None),
                            f.element))
    return holder
