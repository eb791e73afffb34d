"""End-to-end benchmark of the simulator and the simulation service.

See ``README.md`` in this directory and ``BENCHMARK.json`` at the
repository root.
"""
