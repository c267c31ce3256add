"""Wall-clock benchmark spine for the SQLCM monitor.

Five workloads, end-to-end and per-layer metrics, declared in the
``BENCHMARK.json`` at the repo root.  Run ``python3 benchmarks/wall/run.py``
(or ``PYTHONPATH=src python -m benchmarks.wall``); see ``README.md`` here.
"""
