"""Benchmark harness for the mbs-repro program (see perfbench/README.md).

The harness drives the program only through its public entry points
(``repro.api.price``, ``repro.runtime.run_tasks`` and the HTTP endpoint
of ``mbs-repro serve``).  Its modules import nothing from ``repro`` at
module level, so the load generator stays light and the helpers are
testable without the program on the path.
"""
