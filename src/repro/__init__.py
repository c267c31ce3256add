"""SQLCM: a continuous monitoring framework for relational database engines.

Reproduction of Chaudhuri, König, Narasayya (ICDE 2004).  The package has
four layers:

* :mod:`repro.engine` — a from-scratch in-memory relational engine (the
  host DBMS substrate SQLCM embeds into), running on a virtual clock.
* :mod:`repro.core` — SQLCM itself: probes, signatures, lightweight
  aggregation tables (LATs), and the ECA rule engine.
* :mod:`repro.monitoring` — the baseline monitoring mechanisms the paper
  compares against (event logging, snapshot polling, history polling).
* :mod:`repro.workloads` / :mod:`repro.apps` — TPC-H-style workload
  generators and the example monitoring applications from Section 3.
* :mod:`repro.service` — the network service tier: an asyncio TCP
  JSON-lines server multiplexing many client connections onto one
  monitored engine, with governed admission and pushed alerts.
* :mod:`repro.shard` — the sharded replay model: a recorded event trace
  partitioned by replay-stable keys across shard-local monitors, merged
  at the report boundary, with a serial-equivalence determinism proof.
* :mod:`repro.drivers` — probe drivers: the narrow hook surface SQLCM
  consumes (events, plan text, blocker pairs, snapshots), with backends
  for the built-in engine and real sqlite3 database files.

Quickstart::

    from repro import DatabaseServer, SQLCM, Rule, LATDefinition
    from repro.core import InsertAction, PersistAction

    server = DatabaseServer()
    sqlcm = SQLCM(server)
    sqlcm.create_lat(LATDefinition(
        name="Duration_LAT",
        monitored_class="Query",
        grouping=["Query.Logical_Signature AS Sig"],
        aggregations=["AVG(Query.Duration) AS Avg_Duration"],
        ordering=["Avg_Duration DESC"],
        max_rows=100,
    ))
    sqlcm.add_rule(Rule(
        name="track",
        event="Query.Commit",
        actions=[InsertAction("Duration_LAT")],
    ))
"""

from repro.core import (SQLCM, AggSpec, AgingSpec, CancelAction,
                        CancelBlockerAction, FaultInjector, FaultSpec,
                        GovernorPolicy, IncidentManager, IncidentPolicy,
                        InsertAction, LATDefinition, OpenIncidentAction,
                        OrderSpec, OverloadGovernor, PersistAction,
                        QuarantinePolicy, QuarantineRuleAction, ResetAction,
                        ResetLATAction, RetryPolicy, Rule, RunExternalAction,
                        SendMailAction, SetTimerAction)
from repro.drivers import (DriverCapabilities, DriverResult, InMemoryDriver,
                           ProbeDriver, SQLiteDriver, from_url)
from repro.engine import (ColumnDef, DatabaseServer, IfStep, IndexDef,
                          ProcedureDef, ServerConfig, Session, Statement,
                          TableSchema)
from repro.engine.types import SQLType
from repro.errors import ReproError
from repro.obs import Observability
from repro.service import (MonitorService, ServiceClient, ServiceConfig,
                           ServiceRunner)
from repro.shard import EventTrace, Partitioner, ShardedSQLCM
from repro.sim import CostModel, SimClock

__version__ = "1.0.0"

__all__ = [
    "SQLCM",
    "Rule",
    "LATDefinition",
    "AggSpec",
    "AgingSpec",
    "OrderSpec",
    "InsertAction",
    "ResetAction",
    "PersistAction",
    "SendMailAction",
    "RunExternalAction",
    "CancelAction",
    "SetTimerAction",
    "IncidentManager",
    "IncidentPolicy",
    "OpenIncidentAction",
    "CancelBlockerAction",
    "QuarantineRuleAction",
    "ResetLATAction",
    "FaultInjector",
    "FaultSpec",
    "GovernorPolicy",
    "OverloadGovernor",
    "QuarantinePolicy",
    "RetryPolicy",
    "DatabaseServer",
    "ServerConfig",
    "Session",
    "Statement",
    "TableSchema",
    "ColumnDef",
    "IndexDef",
    "ProcedureDef",
    "IfStep",
    "SQLType",
    "CostModel",
    "SimClock",
    "Observability",
    "MonitorService",
    "ServiceConfig",
    "ServiceRunner",
    "ServiceClient",
    "ProbeDriver",
    "InMemoryDriver",
    "SQLiteDriver",
    "DriverCapabilities",
    "DriverResult",
    "from_url",
    "ShardedSQLCM",
    "Partitioner",
    "EventTrace",
    "ReproError",
    "__version__",
]
