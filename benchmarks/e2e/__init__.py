"""End-to-end benchmark of the monitoring plane (see README.md here).

The contract with the benchmark driver is ``BENCHMARK.json`` at the
repository root; ``run.py`` is the one command.
"""
