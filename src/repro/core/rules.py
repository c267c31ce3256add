"""ECA rule objects (paper Section 5).

A rule is an event ``E``, an optional condition ``C``, and a list of
actions ``A`` executed in order whenever ``E`` occurs and ``C`` evaluates
true.  Rules are evaluated in a fixed (registration) order, and all rules
for an event are processed before any event raised as a side effect.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any

from repro.core import state
from repro.core.governor import validate_criticality
from repro.errors import RuleError


@dataclass
class Rule:
    """One Event-Condition-Action rule.

    ``event`` has the form ``Class.Event`` (``"Query.Commit"``,
    ``"Timer.Alert"``).  ``condition`` is condition-language text or None
    (always fire).  ``actions`` is a non-empty ordered list of action
    objects from :mod:`repro.core.actions`.  ``criticality`` classes the
    rule for the overload governor (``critical`` rules are never sampled
    or shed; ``best_effort`` rules are shed first).
    """

    name: str
    event: str
    # polymorphic: saved through durability.action_spec, not the field codec
    actions: list[Any] = field(metadata=state.TRANSIENT)
    condition: str | None = None
    enabled: bool = True
    criticality: str = "normal"

    # bound by SQLCM.add_rule
    event_class: Any = field(default=None, repr=False,
                             metadata=state.TRANSIENT)
    event_def: Any = field(default=None, repr=False,
                           metadata=state.TRANSIENT)
    compiled_condition: Any = field(default=None, repr=False,
                                    metadata=state.TRANSIENT)
    # worked out by the engine on first evaluation, dropped whenever the
    # set of rules or LATs changes (see SQLCM._plan)
    plan: Any = field(default=None, repr=False, metadata=state.TRANSIENT)

    # statistics (per-shard clones each count; the fold sums them)
    fire_count: int = field(default=0, metadata=state.mark(sum))
    evaluation_count: int = field(default=0,
                                  metadata=state.mark(sum))

    def __post_init__(self):
        if not self.name:
            raise RuleError("rule needs a name")
        if not self.actions:
            raise RuleError(f"rule {self.name!r} needs at least one action")
        self.criticality = validate_criticality(self.criticality)

    def clone(self) -> "Rule":
        """An unbound copy with fresh statistics.

        Used by the sharded replay tier to register the same rule text on
        every shard: each clone is bound (and its condition compiled)
        independently by that shard's ``add_rule``, and carries its own
        fire/evaluation counters, which merge by summation at report time.
        Actions are shallow-copied — they hold configuration, not state.
        """
        return Rule(
            name=self.name,
            event=self.event,
            actions=[copy.copy(action) for action in self.actions],
            condition=self.condition,
            enabled=self.enabled,
            criticality=self.criticality,
        )

    @property
    def atomic_condition_count(self) -> int:
        """Number of atomic (comparison) conditions — the unit of Figure 2."""
        if self.compiled_condition is None:
            return 0
        return self.compiled_condition.atomic_count
