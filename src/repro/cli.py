"""Interactive shell: a tiny ``sqlcmd``-style client for the engine + SQLCM.

Run ``python -m repro`` for an interactive session, or pipe a script::

    echo "CREATE TABLE t (a INT PRIMARY KEY, b FLOAT);
          INSERT INTO t VALUES (1, 2.0);
          SELECT * FROM t;" | python -m repro

The shell can also monitor a *real* database through a probe driver::

    python -m repro monitor sqlite:/path/to/app.db

SQL then executes against the external backend while SQLCM watches it
through the driver's event stream (``.driver`` shows the backend and
its capability flags).

Besides SQL, the shell understands monitoring meta-commands:

=====================  ======================================================
``.lats``              list LATs and their row counts
``.lat NAME``          print a LAT's rows
``.rules``             list rules with fire/error/quarantine statistics
``.rules NAME --source``
                       the generated code a rule runs: its condition, the
                       insert of each LAT it feeds, and the dispatch
                       program of its event (the framed variant, since
                       this shell turns observability on)
``.monitor topk K``    install a top-K-expensive-queries tracker
``.monitor outliers``  install the Example 1 outlier detector
``.monitor deviation`` install the stream-query outlier detector
``.monitor remediate`` install the closed-loop auto-remediator (blocking
                       sweep + guarded cancels through the incident
                       manager)
``.incidents [ID]``    incident summary, or one incident's full timeline
``.investigate ID``    time-windowed story around an incident: phases,
                       alerts, remediations, neighbouring incidents, and
                       the statements the engine ran in the window
``.stream TEXT``       register a continuous stream query (FROM ... WINDOW
                       ... AGG ...); see DESIGN.md Section 7 for the grammar
``.streams``           list stream queries with window/alert statistics
``.alerts [NAME]``     recent stream alerts (all streams, or one by name)
``.queries``           recently completed queries (id, duration, text)
``.outbox``            SendMail deliveries
``.deadletters``       side-effect actions that exhausted their retries
``.deadletters retry`` redeliver dead letters through the retry policy
                       (poison entries are dropped after repeated failure)
``.governor``          overload-governor status: ladder state, overhead
                       ratio vs the < 4% envelope, suspended components
``.checkpoint DIR``    write an atomic durability checkpoint of the full
                       monitor state (rules, LATs, streams, incidents,
                       governor, timers) into DIR; further mutations
                       journal there until the next checkpoint
``.metrics``           observability snapshot: counters, gauges, latency
                       histograms, and the TOP OFFENDERS cost ranking
``.trace [N]``         last N trace spans (default 20)
``.trace export PATH`` write the span buffer as Chrome-trace JSON
                       (load in chrome://tracing or Perfetto)
``.report``            full DBA report (activity, blocking, monitoring)
``.driver``            attached probe driver: backend + capability flags
``.explain SQL``       show the backend's plan rendering for a query
``.clock``             current virtual time
``.help``              this text
=====================  ======================================================
"""

from __future__ import annotations

import sys
from typing import IO

from repro import DatabaseServer, InsertAction, ServerConfig, SQLCM
from repro.apps import OutlierDetector, StreamOutlierDetector, TopKTracker
from repro.errors import ReproError


class Shell:
    """One interactive session against a fresh in-memory server, or —
    given a backend (a probe driver, say sqlite's) — against that."""

    def __init__(self, out: IO[str] | None = None, backend=None):
        self.out = out or sys.stdout
        self.sqlcm = SQLCM(backend if backend is not None else DatabaseServer(
            ServerConfig(track_completed_queries=True)))
        self.driver = self.sqlcm.driver
        self.server = self.driver.host
        # the shell is a DBA cockpit: collect attribution/metrics/spans
        # so .metrics and .trace always have data
        self.server.enable_observability()
        # a backend handed in takes its SQL through the driver
        self.session = None if backend is not None else \
            self.server.create_session(user="cli", application="shell")
        self._trackers: dict[str, object] = {}
        self._durability = None  # attached by .checkpoint DIR

    def _print(self, *parts: object) -> None:
        print(*parts, file=self.out)

    # -- command dispatch -----------------------------------------------------

    def execute_line(self, line: str) -> None:
        """Execute one SQL statement or meta-command."""
        line = line.strip().rstrip(";")
        if not line or line.startswith("--"):
            return
        if line.startswith("."):
            self._meta(line)
            return
        try:
            if self.session is not None:
                result = self.session.execute(line)
            else:
                result = self.driver.execute(line)
        except ReproError as err:
            self._print(f"error: {err}")
            return
        if result.error is not None:
            self._print(f"error: {result.error}")
        elif result.rows:
            for row in result.rows:
                self._print("  " + " | ".join(_fmt(v) for v in row))
            self._print(f"({len(result.rows)} rows)")
        elif result.query is not None and \
                result.query.query_type != "SELECT":
            self._print(f"({result.rows_affected} rows affected)")
        else:
            self._print("ok")

    def _meta(self, line: str) -> None:
        parts = line.split()
        command = parts[0].lower()
        if command == ".help":
            self._print(__doc__)
        elif command == ".clock":
            self._print(f"virtual time: {self.server.clock.now:.6f}s")
        elif command == ".lats":
            for lat in self.sqlcm.lats():
                self._print(f"  {lat.definition.name}: {len(lat)} rows, "
                            f"{lat.insert_count} inserts, "
                            f"{lat.eviction_count} evictions")
            if not self.sqlcm.lats():
                self._print("  (no LATs)")
        elif command == ".lat" and len(parts) > 1:
            try:
                lat = self.sqlcm.lat(parts[1])
            except ReproError as err:
                self._print(f"error: {err}")
                return
            for row in lat.rows():
                self._print("  " + " | ".join(
                    f"{k}={_fmt(v)}" for k, v in row.items()))
        elif command == ".rules" and len(parts) == 3 and \
                parts[2].lower() == "--source":
            self._show_rule_source(parts[1])
        elif command == ".rules":
            for rule in self.sqlcm.rules.values():
                health = self.sqlcm.health.health_of(rule.name)
                if health.quarantined:
                    state = "quarantined"
                elif not rule.enabled:
                    state = "off"
                else:
                    state = "on"
                line = (f"  [{state}] {rule.name} ON {rule.event}: "
                        f"{rule.evaluation_count} evals, "
                        f"{rule.fire_count} fired")
                if health.error_count:
                    line += f", {health.error_count} errors"
                if health.quarantined and health.quarantine_reason:
                    line += f" — {health.quarantine_reason}"
                self._print(line)
            if not self.sqlcm.rules:
                self._print("  (no rules)")
            if self.sqlcm.dead_letters.depth:
                self._print(f"  dead letters: "
                            f"{self.sqlcm.dead_letters.depth}")
        elif command == ".monitor" and len(parts) > 1:
            self._install_monitor(parts[1:])
        elif command == ".stream" and len(parts) > 1:
            text = line[len(".stream"):].strip()
            try:
                query = self.sqlcm.stream_engine().register(text)
            except ReproError as err:
                self._print(f"error: {err}")
                return
            self._print(f"stream {query.spec.name!r} registered on "
                        f"{query.spec.event_spec}")
        elif command == ".streams":
            streams = self.sqlcm.stream_engine()
            streams.flush()
            for query in streams.queries():
                info = query.describe()
                health = streams.health.health_of(info["name"])
                state = "quarantined" if health.quarantined else (
                    "on" if query.enabled else "off")
                self._print(
                    f"  [{state}] {info['name']} ON {info['event']} "
                    f"{info['window']}: {info['ingested']} events, "
                    f"{info['groups']} groups, {info['windows']} windows, "
                    f"{info['alerts']} alerts"
                    + (f", {info['errors']} errors" if info["errors"]
                       else "")
                    + (f", panes: {info['panes']}" if info["panes"]
                       else ""))
            if not streams.queries():
                self._print("  (no stream queries)")
        elif command == ".alerts":
            streams = self.sqlcm.stream_engine()
            streams.flush()
            queries = streams.queries()
            if len(parts) > 1:
                try:
                    queries = [streams.query(parts[1])]
                except ReproError as err:
                    self._print(f"error: {err}")
                    return
            shown = 0
            for query in queries:
                for alert in list(query.alerts)[-10:]:
                    extra = ""
                    if alert["kind"] == "deviation":
                        extra = (f" baseline={_fmt(alert['baseline'])}"
                                 f" sigma={_fmt(alert['sigma'])}")
                    elif alert["kind"] == "topk":
                        extra = f" rank={alert['rank']}"
                    self._print(
                        f"  [{alert['stream']}] {alert['kind']} "
                        f"group={_fmt(alert['group'])} "
                        f"{alert['column']}={_fmt(alert['value'])} "
                        f"window=[{alert['window_start']:g}s,"
                        f"{alert['window_end']:g}s)" + extra)
                    shown += 1
            if not shown:
                self._print("  (no alerts)")
        elif command == ".queries":
            for qctx in self.driver.completed_queries()[-10:]:
                duration = qctx.duration_at(self.driver.now())
                self._print(f"  #{qctx.query_id} {duration * 1e3:8.2f}ms "
                            f"{qctx.text[:60]}")
        elif command == ".outbox":
            for mail in self.sqlcm.outbox:
                self._print(f"  to {mail.address}: {mail.body}")
            if not self.sqlcm.outbox:
                self._print("  (empty)")
        elif command == ".deadletters":
            letters = self.sqlcm.dead_letters
            if len(parts) > 1 and parts[1].lower() == "retry":
                report = letters.redeliver(self.sqlcm)
                self._print(f"  redelivered {report.delivered}, "
                            f"dropped {report.dropped} poison, "
                            f"{report.remaining} remaining")
                return
            for entry in letters.entries():
                self._print(f"  t={entry.time:.3f}s rule={entry.rule} "
                            f"{entry.payload} ({entry.attempts} attempts): "
                            f"{entry.error}")
            if letters.dropped:
                self._print(f"  ({letters.dropped} older entries dropped "
                            f"from the ring)")
            if not letters.depth:
                self._print("  (empty)")
        elif command == ".incidents":
            self._show_incidents(parts[1:])
        elif command == ".investigate" and len(parts) > 1:
            self._show_investigation(parts[1:])
        elif command == ".governor":
            from repro.monitoring.report import governor_status
            self._print(governor_status(self.sqlcm))
        elif command == ".checkpoint" and len(parts) > 1:
            self._checkpoint(parts[1])
        elif command == ".metrics":
            self._show_metrics()
        elif command == ".trace":
            self._show_trace(parts[1:])
        elif command == ".report":
            from repro.monitoring.report import full_report
            self._print(full_report(self.server, self.sqlcm))
        elif command == ".driver":
            from repro.monitoring.report import driver_status
            self._print(driver_status(self.driver))
        elif command == ".explain" and len(parts) > 1:
            sql = line[len(".explain"):].strip()
            try:
                self._print(self.driver.plan_text(sql))
            except ReproError as err:
                self._print(f"error: {err}")
        else:
            self._print(f"unknown meta-command {parts[0]!r}; try .help")

    def _checkpoint(self, directory: str) -> None:
        from repro.core.durability import DurabilityManager
        try:
            if self._durability is None \
                    or self._durability.directory != directory:
                if self._durability is not None:
                    self._durability.detach()
                self._durability = DurabilityManager(self.sqlcm, directory)
                self._durability.attach()  # takes the first checkpoint
            else:
                self._durability.checkpoint()
            info = self._durability.describe()
            self._print(f"checkpoint generation {info['generation']} "
                        f"written to {directory} "
                        f"({info['checkpoints_taken']} total; mutations "
                        f"now journal there)")
        except (ReproError, OSError) as err:
            self._print(f"error: {err}")

    def _show_rule_source(self, name: str) -> None:
        """Print the generated functions one rule runs."""
        rule = self.sqlcm.rules.get(name.lower())
        if rule is None:
            self._print(f"error: unknown rule {name!r}")
            return
        if rule.compiled_condition is not None:
            self._print(f"-- condition of {rule.name}")
            self._print(rule.compiled_condition.source)
        for action in rule.actions:
            if isinstance(action, InsertAction) and \
                    self.sqlcm.has_lat(action.lat_name):
                lat = self.sqlcm.lat(action.lat_name)
                self._print(f"-- insert of LAT {lat.definition.name}")
                self._print(lat._insert.__source__)
        event = rule.event_def.engine_event
        key = rule.event_class.name.lower()
        index = [r.name for r in self.sqlcm.rules.values()
                 if r.event_def.engine_event == event].index(rule.name)
        self._print(f"-- dispatch program of {event} over a {key} object "
                    f"({rule.name} is rule {index})")
        self._print(self.sqlcm.dispatch_source(event, {key}))

    def _show_incidents(self, args: list[str]) -> None:
        if not self.sqlcm.has_incidents:
            self._print("  (no incidents recorded)")
            return
        from repro.monitoring.investigate import incident_status
        if not args:
            self._print(incident_status(self.sqlcm))
            return
        try:
            incident = self.sqlcm.incident_manager().incident(
                int(args[0]))
        except (ValueError, ReproError) as err:
            self._print(f"error: {err}")
            return
        self._print(f"  #{incident.incident_id} [{incident.state}] "
                    f"{incident.incident_class}/{incident.signature} "
                    f"severity={incident.severity} "
                    f"x{incident.occurrences}")
        if incident.summary:
            self._print(f"  summary: {incident.summary}")
        for time, phase, detail in incident.timeline:
            suffix = f" — {detail}" if detail else ""
            self._print(f"  {time:10.3f}s {phase}{suffix}")

    def _show_investigation(self, args: list[str]) -> None:
        if not self.sqlcm.has_incidents:
            self._print("  (no incidents recorded)")
            return
        from repro.monitoring.investigate import (investigate,
                                                  render_investigation)
        try:
            incident_id = int(args[0])
            window = float(args[1]) if len(args) > 1 else 5.0
            report = investigate(self.sqlcm, incident_id, window=window)
        except (ValueError, ReproError) as err:
            self._print(f"error: {err}")
            return
        self._print(render_investigation(report))

    def _show_metrics(self) -> None:
        obs = self.server.obs
        if not obs.enabled:
            self._print("observability is disabled")
            return
        snap = obs.metrics.snapshot()
        if snap["counters"]:
            self._print("counters:")
            for name, value in snap["counters"].items():
                self._print(f"  {name} = {value}")
        if snap["gauges"]:
            self._print("gauges:")
            for name, value in snap["gauges"].items():
                self._print(f"  {name} = {_fmt(value)}")
        if snap["histograms"]:
            self._print("histograms:")
            for name, summary in snap["histograms"].items():
                self._print(
                    f"  {name}: n={summary['count']} "
                    f"mean={summary['mean'] * 1e6:.3f}us "
                    f"p50={summary['p50'] * 1e6:.3f}us "
                    f"p95={summary['p95'] * 1e6:.3f}us "
                    f"max={summary['max'] * 1e6:.3f}us")
        if not any(snap.values()):
            self._print("  (no metrics recorded yet)")
        from repro.monitoring.report import top_offenders
        self._print("")
        self._print(top_offenders(self.server, self.sqlcm))

    def _show_trace(self, args: list[str]) -> None:
        obs = self.server.obs
        if not obs.enabled:
            self._print("observability is disabled")
            return
        if args and args[0].lower() == "export":
            if len(args) < 2:
                self._print("usage: .trace export PATH")
                return
            path = args[1]
            try:
                with open(path, "w", encoding="utf-8") as fp:
                    obs.trace.export_json(fp)
            except OSError as err:
                self._print(f"error: {err}")
                return
            self._print(f"wrote {len(obs.trace)} spans to {path}")
            return
        limit = 20
        if args:
            try:
                limit = int(args[0])
            except ValueError:
                self._print("usage: .trace [N] | .trace export PATH")
                return
        spans = obs.trace.spans(limit)
        for span in spans:
            cost = (span.args or {}).get("cost_us", 0.0)
            self._print(f"  {span.start * 1e3:10.3f}ms "
                        f"cost={cost:8.3f}us "
                        f"[{span.category}] {span.name}")
        if not spans:
            self._print("  (no spans recorded)")
        elif obs.trace.dropped:
            self._print(f"  ({obs.trace.dropped} older spans dropped "
                        f"from the ring)")

    def _install_monitor(self, args: list[str]) -> None:
        kind = args[0].lower()
        try:
            if kind == "topk":
                k = int(args[1]) if len(args) > 1 else 10
                self._trackers["topk"] = TopKTracker(self.sqlcm, k=k)
                self._print(f"tracking top-{k} most expensive queries "
                            "(.lat TopK_LAT to view)")
            elif kind == "outliers":
                self._trackers["outliers"] = OutlierDetector(self.sqlcm)
                self._print("outlier detection installed "
                            "(.lat Duration_LAT to view)")
            elif kind == "deviation":
                self._trackers["deviation"] = \
                    StreamOutlierDetector(self.sqlcm)
                self._print("stream deviation detection installed "
                            "(.alerts duration_outliers to view)")
            elif kind == "remediate":
                from repro.apps import AutoRemediator
                self._trackers["remediate"] = AutoRemediator(self.sqlcm)
                self._print("auto-remediation installed "
                            "(.incidents to view)")
            else:
                self._print(f"unknown monitor {kind!r} "
                            "(try: topk, outliers, deviation, remediate)")
        except ReproError as err:
            self._print(f"error: {err}")

    # -- main loops ------------------------------------------------------------

    def run_script(self, text: str) -> None:
        """Execute ';'-separated statements from a script."""
        buffer = ""
        for raw_line in text.splitlines():
            stripped = raw_line.strip()
            if stripped.startswith("."):
                if buffer.strip():
                    self.execute_line(buffer)
                    buffer = ""
                self.execute_line(stripped)
                continue
            buffer += " " + raw_line
            while ";" in buffer:
                statement, __, buffer = buffer.partition(";")
                self.execute_line(statement)
        if buffer.strip():
            self.execute_line(buffer)

    def repl(self, inp: IO[str] | None = None) -> None:  # pragma: no cover
        inp = inp or sys.stdin
        interactive = inp.isatty()
        if interactive:
            self._print("SQLCM repro shell — .help for meta-commands, "
                        "Ctrl-D to exit")
        while True:
            if interactive:
                self.out.write("sqlcm> ")
                self.out.flush()
            line = inp.readline()
            if not line:
                break
            self.execute_line(line)


def _fmt(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, bytes):
        return value.hex()[:12]
    return str(value)


def main() -> None:  # pragma: no cover
    argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        # `python -m repro serve [--host H] [--port P] [--driver URL]` —
        # start the network service tier instead of the interactive shell
        from repro.service import serve_main
        raise SystemExit(serve_main(argv[1:]))
    backend = None
    if argv and argv[0] == "monitor":
        # `python -m repro monitor sqlite:PATH` — shell over an external
        # backend through a probe driver
        if len(argv) < 2:
            print("usage: python -m repro monitor <driver-url>  "
                  "(e.g. sqlite:/path/to/app.db)", file=sys.stderr)
            raise SystemExit(2)
        from repro.drivers import from_url
        from repro.errors import ReproError
        try:
            backend = from_url(argv[1])
        except ReproError as err:
            print(f"error: {err}", file=sys.stderr)
            raise SystemExit(2)
    shell = Shell(backend=backend)
    if sys.stdin.isatty():
        shell.repl()
    else:
        shell.run_script(sys.stdin.read())


if __name__ == "__main__":  # pragma: no cover
    main()
