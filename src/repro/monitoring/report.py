"""DBA-facing text reports over a live server + SQLCM instance.

The paper's monitoring applications ultimately feed a DBA; this module
renders the state they would look at — monitoring configuration, LAT
contents, blocking health, template performance — as plain-text reports
(used by the CLI's ``.report`` command and handy in notebooks/tests).
"""

from __future__ import annotations

from typing import Iterable


def _table(headers: list[str], rows: Iterable[tuple]) -> list[str]:
    """Render an aligned text table."""
    materialized = [tuple(str(v) for v in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in materialized:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return lines


def monitoring_configuration(sqlcm) -> str:
    """What is being monitored right now: rules, LATs, timers."""
    lines = ["MONITORING CONFIGURATION", ""]
    lines += _table(
        ["rule", "event", "conditions", "evals", "fired", "state"],
        [
            (r.name, r.event, r.atomic_condition_count,
             r.evaluation_count, r.fire_count,
             "enabled" if r.enabled else "disabled")
            for r in sqlcm.rules.values()
        ],
    )
    lines.append("")
    lines += _table(
        ["LAT", "class", "rows", "inserts", "evictions", "bytes"],
        [
            (lat.definition.name, lat.definition.monitored_class,
             len(lat), lat.insert_count, lat.eviction_count,
             lat.memory_bytes())
            for lat in sqlcm.lats()
        ],
    )
    timers = sqlcm.timer_service.timers()
    if timers:
        lines.append("")
        lines += _table(
            ["timer", "interval", "remaining"],
            [(t.name, f"{t.interval:g}s", t.remaining) for t in timers],
        )
    return "\n".join(lines)


def rule_health(sqlcm) -> str:
    """Fault-isolation status: per-rule errors, quarantine, dead letters."""
    lines = ["RULE HEALTH", ""]
    if sqlcm.rules:
        rows = []
        for r in sqlcm.rules.values():
            health = sqlcm.health.health_of(r.name)
            state = health.state
            if health.quarantined and health.quarantine_reason:
                state = f"{state} ({health.quarantine_reason})"
            rows.append((r.name, r.evaluation_count, r.fire_count,
                         health.error_count, health.quarantine_count, state))
        lines += _table(
            ["rule", "evals", "fired", "errors", "quarantines", "state"],
            rows,
        )
    else:
        lines.append("no rules registered")
    lines.append("")
    lines.append(f"rule errors isolated: {sqlcm.rule_errors}")
    lines.append(f"dead-letter journal depth: {sqlcm.dead_letters.depth}")
    for entry in sqlcm.dead_letters.entries()[-5:]:
        lines.append(f"  t={entry.time:.3f}s rule={entry.rule} "
                     f"{entry.payload} ({entry.attempts} attempts): "
                     f"{entry.error}")
    if sqlcm.faults is not None and sqlcm.faults.injected_total():
        lines.append("")
        lines += _table(
            ["fault site", "checks", "injected"],
            [
                (site, sqlcm.faults.checks.get(site, 0), count)
                for site, count in sorted(sqlcm.faults.injected.items())
                if count
            ],
        )
    return "\n".join(lines)


def stream_activity(sqlcm, alert_limit: int = 5) -> str:
    """Continuous stream queries: window stats, health, recent alerts."""
    streams = sqlcm.stream_engine()
    streams.flush()
    lines = ["STREAMS", ""]
    queries = streams.queries()
    if not queries:
        lines.append("no stream queries registered")
        return "\n".join(lines)
    rows = []
    for query in queries:
        health = streams.health.health_of(query.spec.name)
        state = health.state if health.error_count or health.quarantined \
            else ("enabled" if query.enabled else "disabled")
        rows.append((query.spec.name, query.spec.event_spec,
                     query.describe()["window"], query.window.group_count,
                     query.events_ingested, query.windows_emitted,
                     query.alert_count, query.errors, state))
    lines += _table(
        ["stream", "event", "window", "groups", "events", "windows",
         "alerts", "errors", "state"],
        rows,
    )
    recent = []
    for query in queries:
        for alert in list(query.alerts)[-alert_limit:]:
            recent.append((alert["time"], query.spec.name, alert))
    recent.sort(key=lambda entry: entry[0])
    if recent:
        lines.append("")
        lines += _table(
            ["time", "stream", "kind", "group", "column", "value",
             "window"],
            [
                (f"{t:.1f}s", name, a["kind"], _short(a["group"], 20),
                 a["column"], _short(a["value"]),
                 f"[{a['window_start']:g},{a['window_end']:g})")
                for t, name, a in recent[-alert_limit * 2:]
            ],
        )
    return "\n".join(lines)


def lat_contents(sqlcm, lat_name: str, limit: int = 20) -> str:
    """One LAT's rows in its declared ordering."""
    lat = sqlcm.lat(lat_name)
    rows = lat.rows()[:limit]
    if not rows:
        return f"LAT {lat.definition.name}: empty"
    columns = lat.definition.column_names()
    rendered = [
        tuple(_short(row.get(c)) for c in columns) for row in rows
    ]
    lines = [f"LAT {lat.definition.name} ({len(lat)} rows)", ""]
    lines += _table(columns, rendered)
    return "\n".join(lines)


def blocking_health(server, sqlcm=None) -> str:
    """Current lock waits and the waits-for graph."""
    lines = ["BLOCKING HEALTH", ""]
    pairs = server.locks.blocking_pairs()
    if not pairs:
        lines.append("no queries are currently blocked")
    else:
        rows = []
        now = server.clock.now
        for ticket, holder_txn, resource in pairs:
            blocked = ticket.qctx
            blocker = server.current_query_of_txn(holder_txn)
            rows.append((
                blocked.query_id if blocked else "?",
                f"{now - ticket.requested_at:.2f}s",
                str(resource),
                blocker.query_id if blocker else holder_txn,
                (blocker.text[:40] if blocker else ""),
            ))
        lines += _table(
            ["blocked qid", "waiting", "resource", "blocker", "statement"],
            rows,
        )
    lines.append("")
    lines.append(f"deadlocks detected so far: "
                 f"{server.locks.deadlocks_detected}")
    return "\n".join(lines)


def server_activity(server, limit: int = 10) -> str:
    """Active queries plus the most recent completions."""
    now = server.clock.now
    lines = ["SERVER ACTIVITY", "",
             f"virtual time: {now:.3f}s",
             f"active queries: {len(server.active_queries())}"]
    if server.active_queries():
        lines.append("")
        lines += _table(
            ["qid", "state", "elapsed", "user", "statement"],
            [
                (q.query_id, q.state.value,
                 f"{q.duration_at(now) * 1e3:.1f}ms", q.user, q.text[:40])
                for q in server.active_queries()
            ],
        )
    recent = server.completed_queries[-limit:]
    if recent:
        lines.append("")
        lines += _table(
            ["qid", "outcome", "duration", "statement"],
            [
                (q.query_id, q.state.value,
                 f"{q.duration_at(now) * 1e3:.1f}ms", q.text[:40])
                for q in recent
            ],
        )
    return "\n".join(lines)


def top_offenders(server, sqlcm, limit: int = 10) -> str:
    """Rules / LATs / streams ranked by attributed monitoring cost.

    Answers the DBA question the pool total cannot: *which* piece of the
    monitoring configuration is spending the overhead budget.  Requires
    ``server.enable_observability()``; reports that it is off otherwise.
    """
    lines = ["TOP OFFENDERS", ""]
    if not server.observability_enabled:
        lines.append("observability is disabled "
                     "(server.enable_observability() to collect)")
        return "\n".join(lines)
    attribution = server.obs.attribution
    rows = []
    total = server.monitor_cost_total
    for kind, name, cost, charges in attribution.top(limit):
        share = (cost / total * 100.0) if total else 0.0
        rows.append((f"{kind}:{name}", f"{cost * 1e6:.3f}us",
                     f"{share:.1f}%", charges))
    if rows:
        lines += _table(["component", "cost", "share", "charges"], rows)
    else:
        lines.append("no attributed monitoring cost yet")
    lines.append("")
    by_kind = attribution.by_kind()
    lines += _table(
        ["kind", "cost", "components"],
        [
            (kind, f"{cost * 1e6:.3f}us",
             len(attribution.components(kind)))
            for kind, cost in sorted(by_kind.items(),
                                     key=lambda kv: -kv[1])
        ],
    )
    lines.append("")
    lines.append(f"monitor pool total: {total * 1e6:.3f}us  "
                 f"attributed: {attribution.attributed_total() * 1e6:.3f}us")
    return "\n".join(lines)


def governor_status(sqlcm) -> str:
    """Overload-governor state: ladder position, overhead ratios, sheds."""
    lines = ["OVERLOAD GOVERNOR", ""]
    governor = sqlcm.governor
    if governor is None:
        lines.append("governor is disabled "
                     "(sqlcm.enable_governor() to activate)")
        return "\n".join(lines)
    info = governor.describe()
    policy = governor.policy
    lines.append(f"state: {info['state']}")
    lines.append(f"overhead: measured {info['overhead_ratio'] * 100:.2f}%  "
                 f"estimated-ungoverned "
                 f"{info['estimated_ratio'] * 100:.2f}%  "
                 f"(target {policy.target_overhead * 100:.1f}%, "
                 f"recover below {policy.exit_overhead * 100:.1f}%)")
    lines.append(f"evals sampled out: {info['evals_sampled_out']}  "
                 f"evals suspended: {info['evals_suspended']}  "
                 f"inserts shed: {info['inserts_shed']}  "
                 f"sample rate 1/{policy.sample_rate}")
    suspended = info["suspended"]
    if suspended:
        lines.append("")
        lines += _table(
            ["suspended component"], [(name,) for name in suspended],
        )
    transitions = governor.transitions[-5:]
    if transitions:
        lines.append("")
        lines += _table(
            ["time", "transition", "reason", "measured", "estimated"],
            [
                (f"{t.time:.3f}s", f"{t.from_state} -> {t.to_state}",
                 t.reason, f"{t.overhead_ratio * 100:.2f}%",
                 f"{t.estimated_ratio * 100:.2f}%")
                for t in transitions
            ],
        )
    return "\n".join(lines)


def driver_status(driver) -> str:
    """The attached probe driver: backend identity, capabilities, counters."""
    lines = ["DRIVER", ""]
    info = driver.describe()
    lines.append(f"driver: {info['driver']}")
    lines.append(f"backend: {info['backend']}")
    caps = info["capabilities"]
    granted = sorted(k for k, v in caps.items()
                     if v is True and k != "snapshots")
    denied = sorted(k for k, v in caps.items()
                    if v is False and k != "snapshots")
    lines.append(f"capabilities: {', '.join(granted) or '(none)'}")
    if denied:
        lines.append(f"degraded (unavailable): {', '.join(denied)}")
    lines.append(f"snapshots: {', '.join(caps.get('snapshots', []))}")
    counters = info.get("counters") or {}
    if counters:
        lines.append("")
        lines += _table(
            ["counter", "value"],
            [(k, _short(v)) for k, v in sorted(counters.items())],
        )
    return "\n".join(lines)


def full_report(server, sqlcm) -> str:
    """Everything a DBA checks first."""
    sections = [
        server_activity(server),
        blocking_health(server, sqlcm),
        monitoring_configuration(sqlcm),
        rule_health(sqlcm),
    ]
    sections.append(driver_status(sqlcm.driver))
    if sqlcm.has_streams:
        sections.append(stream_activity(sqlcm))
    if sqlcm.has_incidents:
        from repro.monitoring.investigate import incident_status
        sections.append(incident_status(sqlcm))
    if sqlcm.governor is not None:
        sections.append(governor_status(sqlcm))
    if server.observability_enabled:
        sections.append(top_offenders(server, sqlcm))
    return ("\n\n" + "=" * 60 + "\n\n").join(sections)


def _short(value, width: int = 28) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bytes):
        return value.hex()[:12]
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    return text if len(text) <= width else text[:width - 1] + "…"


def governor_snapshot(sqlcm) -> dict:
    """Overload-governor state as a plain dict (service ``status``).

    The JSON twin of :func:`governor_status`: ladder position, overhead
    ratios, shed counters, suspensions, and the recent transition tail —
    everything the text report shows, in machine-readable form.
    """
    governor = sqlcm.governor
    if governor is None:
        return {"enabled": False}
    info = dict(governor.describe())
    policy = governor.policy
    info["enabled"] = True
    info["policy"] = {
        "target_overhead": policy.target_overhead,
        "exit_overhead": policy.exit_overhead,
        "window": policy.window,
        "cooldown": policy.cooldown,
        "decision_interval": policy.decision_interval,
        "sample_rate": policy.sample_rate,
    }
    info["recent_transitions"] = [
        {"time": t.time, "from": t.from_state, "to": t.to_state,
         "reason": t.reason, "overhead_ratio": t.overhead_ratio,
         "estimated_ratio": t.estimated_ratio}
        for t in governor.transitions[-10:]
    ]
    return info


def activity_snapshot(server, limit: int = 10) -> dict:
    """Server activity as a plain dict (service ``status``).

    Active queries, the recent-completion tail, and current blocking
    pairs — the JSON twin of :func:`server_activity` +
    :func:`blocking_health`.
    """
    now = server.clock.now

    def _query(q):
        return {
            "query_id": q.query_id,
            "state": q.state.value,
            "user": q.user,
            "duration": q.duration_at(now),
            "times_blocked": q.times_blocked,
            "time_blocked": q.time_blocked,
            "error": q.error,
            "text": q.text,
        }

    blocking = []
    for ticket, holder_txn, resource in server.locks.blocking_pairs():
        blocker = server.current_query_of_txn(holder_txn)
        blocking.append({
            "blocked_query": (ticket.qctx.query_id
                              if ticket.qctx is not None else None),
            "waiting_for": now - ticket.requested_at,
            "resource": str(resource),
            "blocker_query": (blocker.query_id
                              if blocker is not None else None),
            "blocker_txn": holder_txn,
        })
    return {
        "time": now,
        "sessions": len(server._sessions),
        "active_queries": [_query(q) for q in server.active_queries()],
        "completed_queries": [
            _query(q)
            for q in getattr(server, "completed_queries", [])[-limit:]
        ],
        "blocking": blocking,
        "deadlocks_detected": server.locks.deadlocks_detected,
        "monitor_cost_total": server.monitor_cost_total,
    }
