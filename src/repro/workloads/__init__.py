"""Workload generation: TPC-H-style schema/data plus the paper's query mixes.

The paper evaluates on the TPC-H schema with a 6M-row lineitem table; this
package generates a deterministic, scaled-down equivalent and reproduces
the workload *shapes* the experiments depend on: thousands of short
single-row selections interleaved with multi-row three-table joins
(Section 6.2), plus parameterized stored procedures with IF/ELSE code paths
and injected outliers for the signature experiments.
"""

from repro.workloads.generator import (WorkloadMix, mixed_paper_workload,
                                       short_select_workload)
from repro.workloads.procedures import register_order_procedures
from repro.workloads.tpch import TPCHConfig, create_tpch_schema, load_tpch

__all__ = [
    "TPCHConfig",
    "create_tpch_schema",
    "load_tpch",
    "WorkloadMix",
    "mixed_paper_workload",
    "short_select_workload",
    "register_order_procedures",
]
