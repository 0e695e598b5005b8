"""The wall-clock ledger: five named workloads timed from outside.

``run.py`` runs one workload in this interpreter (the ``BENCHMARK.json``
command); ``python -m benchmarks.e2e`` drives all five in fresh
interpreters, writes ``BENCH_e2e.json`` and compares two ledgers.  See
``README.md`` for the glossary every later issue cites.
"""
