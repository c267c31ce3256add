"""Calibrated virtual-time cost model.

All values are virtual seconds charged to the :class:`~repro.sim.SimClock`.
The defaults are calibrated so that the *relative* overheads of the paper's
experiments come out in the reported bands:

* E2 (Figure 2): 1000 rules with LAT maintenance on every short query add
  less than ~4% to the query's execution time; per-atomic-condition cost is
  small compared to LAT-insert cost ("LAT maintenance is the biggest
  factor").
* E3 (Figure 3): synchronous per-query logging costs > 20% of a short
  query's time; a single SQLCM rule plus LAT insert costs < 0.1%; a poll
  snapshot costs milliseconds plus a per-active-query term.

Absolute numbers are *not* the reproduction target (the paper ran C++ code
inside SQL Server on 2000-era hardware); the operation-count-times-cost
structure is.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CostModel:
    """Per-operation virtual-time costs (seconds)."""

    # --- compilation -----------------------------------------------------
    parse_base: float = 50e-6
    parse_per_token: float = 1e-6
    optimize_base: float = 300e-6
    optimize_per_node: float = 80e-6
    # join-order search grows combinatorially with join count; this is why
    # signature cost (linear in plan size) shrinks *relative* to
    # optimization for complex queries (paper Section 6.2.1)
    optimize_search_per_join: float = 25e-3
    plan_cache_probe: float = 4e-6

    # --- storage / execution ---------------------------------------------
    index_seek: float = 120e-6
    index_scan_per_row: float = 2.5e-6
    table_scan_per_row: float = 1.2e-6
    row_fetch_cached: float = 1.5e-6
    row_fetch_io: float = 4e-3
    predicate_eval: float = 0.4e-6
    project_per_row: float = 0.3e-6
    hash_build_per_row: float = 1.0e-6
    hash_probe_per_row: float = 0.8e-6
    sort_per_row_log_row: float = 0.5e-6
    agg_per_row: float = 0.6e-6
    row_insert: float = 25e-6
    row_update: float = 20e-6
    row_delete: float = 18e-6
    rows_per_page: int = 100

    # --- concurrency -----------------------------------------------------
    lock_acquire: float = 0.8e-6
    lock_release: float = 0.5e-6
    deadlock_search_per_edge: float = 2e-6

    # --- transaction -----------------------------------------------------
    txn_begin: float = 5e-6
    txn_commit: float = 150e-6  # log flush
    txn_rollback_per_undo: float = 15e-6

    # --- statement fixed overhead (network round trip, dispatch, ...) ----
    statement_overhead: float = 9.5e-3

    # --- SQLCM monitoring -------------------------------------------------
    # calibrated against the paper's measurement that 1000 rules with 20
    # atomic conditions each, every one maintaining a 10-row LAT, add < 4%
    # to a short query — i.e. ≲0.4us of C++ work per rule+LAT-insert
    event_dispatch: float = 0.05e-6
    rule_eval_base: float = 0.04e-6
    rule_atomic_condition: float = 0.006e-6
    lat_lookup: float = 0.05e-6
    lat_insert: float = 0.12e-6
    lat_evict: float = 0.06e-6
    lat_latch: float = 0.008e-6
    signature_per_node: float = 0.6e-6
    action_dispatch: float = 0.02e-6
    timer_fire: float = 2e-6
    sendmail_cost: float = 2e-3
    runexternal_cost: float = 5e-3
    persist_row: float = 30e-6

    # --- stream queries (continuous monitoring subsystem) ------------------
    # per-event work is a hash lookup + a handful of float updates; window
    # emission is a pane merge (O(panes), never O(events)); alert delivery
    # costs one meta-event dispatch.  Calibrated so ~20 concurrent stream
    # queries stay inside the Figure 2 < 4% envelope on the E2 workload.
    stream_ingest: float = 0.05e-6
    stream_where_atomic: float = 0.006e-6
    stream_pane_update: float = 0.04e-6   # per aggregate state update
    stream_pane_merge: float = 0.03e-6    # per pane-state combine
    stream_emit_row: float = 0.08e-6      # per window-group row (incl HAVING)
    stream_anomaly_update: float = 0.05e-6
    stream_alert_publish: float = 0.5e-6

    # --- self-observability (attribution, spans, metrics) -----------------
    # the monitor observing itself must stay inside the Figure 2 envelope;
    # pushing an attribution context or bumping a metric is a couple of
    # pointer writes, recording a span is a clock read + ring append
    obs_attrib: float = 0.002e-6
    obs_span: float = 0.01e-6
    obs_metric: float = 0.002e-6

    # --- overload governor -------------------------------------------------
    # the feedback controller must cost less than what it saves: one
    # observation is a clock read + deque append, one admission check is a
    # CRC over a short name, one decision is a window scan + a few ratios
    governor_observe: float = 0.02e-6
    governor_admit: float = 0.002e-6
    governor_decision: float = 2e-6

    # --- fault isolation (resilience layer) -------------------------------
    # catching + recording one rule failure; a per-rule quarantine-state
    # check is a flag read (~1ns); checksums are a CRC over one row
    rule_error_cost: float = 0.5e-6
    quarantine_check: float = 0.001e-6
    dead_letter_append: float = 1e-6
    persist_checksum_per_row: float = 0.5e-6

    # --- incident lifecycle / auto-remediation -----------------------------
    # opening an incident allocates a record + dict entry; dedup bumps a
    # counter; a sweep scans the (small) active set; one remediation attempt
    # renders a signature and consults the budget/flap guardrails;
    # investigation scans persisted history rows
    incident_open: float = 1e-6
    incident_update: float = 0.2e-6
    incident_sweep_base: float = 0.5e-6
    remediation_attempt: float = 2e-6
    investigate_per_row: float = 0.5e-6

    # --- baseline monitoring mechanisms (Section 6.2.2) -------------------
    log_write_row_sync: float = 3.0e-3  # synchronous write of one event row
    poll_snapshot_base: float = 2.0e-3  # building + shipping one snapshot
    poll_per_active_query: float = 60e-6
    poll_per_history_row: float = 25e-6
    network_per_row: float = 15e-6

    # --- memory model ------------------------------------------------------
    buffer_pool_pages: int = 4000
    history_rows_per_page: int = 40

    extras: dict = field(default_factory=dict)

    def sort_cost(self, n: int) -> float:
        """Cost of sorting ``n`` rows (n log2 n comparisons)."""
        if n <= 1:
            return self.sort_per_row_log_row
        import math

        return self.sort_per_row_log_row * n * math.log2(n)

    def fetch_cost(self, hit_ratio: float) -> float:
        """Expected cost of fetching one row given a buffer-cache hit ratio."""
        hit_ratio = min(1.0, max(0.0, hit_ratio))
        return hit_ratio * self.row_fetch_cached + (1.0 - hit_ratio) * (
            self.row_fetch_io / self.rows_per_page
        )
