"""Ground-truth accuracy comparison for monitoring answers (Figure 3).

The paper reports how many of the true top-10 most expensive queries each
approach missed.  Ground truth comes from the backend's completed-query
record: pass a :class:`~repro.drivers.base.ProbeDriver` (any backend) or
a bare in-memory server (enable ``ServerConfig.track_completed_queries``)
— the same accuracy math scores both.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.drivers.base import resolve


def top_k_ground_truth(source, k: int,
                       exclude_apps: Iterable[str] = ("query_logging",
                                                      "monitor")
                       ) -> list[tuple[int, str, float]]:
    """True top-k completed queries by duration (``source``: a ProbeDriver
    or a DatabaseServer)."""
    driver = resolve(source)
    now = driver.now()
    excluded = set(exclude_apps)
    survivors = [q for q in driver.completed_queries()
                 if q.application not in excluded]
    ranked = sorted(
        survivors,
        key=lambda q: q.duration_at(now),
        reverse=True,
    )
    return [
        (q.query_id, q.text, q.duration_at(now))
        for q in ranked[:k]
    ]


def missed_top_k(truth: Sequence[tuple], answer: Sequence[tuple]) -> int:
    """How many true top-k queries the monitor's answer failed to include.

    Matching is by query id when available, falling back to query text
    (PULL identifies queries it observed; LAT answers may only carry text).
    """
    answer_ids = {row[0] for row in answer if row and row[0] is not None}
    if answer_ids:
        return sum(1 for row in truth if row[0] not in answer_ids)
    answer_texts = {row[1] for row in answer if len(row) > 1}
    return sum(1 for row in truth if row[1] not in answer_texts)
