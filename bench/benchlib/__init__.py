"""The repo's one benchmark: workloads, timed runs, staged replay, reports.

Everything here measures ``src/repro`` from outside — by timing calls
into public functions and reading what ``JobResult`` already reports.
``bench/run.py`` is the entry point; ``bench/README.md`` has the tables.
"""

SCHEMA_VERSION = 1
