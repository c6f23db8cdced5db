"""Microbenchmarks for the layers the end-to-end benchmark cannot see
(``scripts/bench.py``).

Unlike the paper-reproduction benchmarks in ``benchmarks/`` and the
end-to-end workloads in ``benchmarks/e2e/`` (the perf contract), these
time one inner loop each — ULM text codec, summary ingest, directory
search, kernel dispatch — against parity-asserted seed-equivalent
references (:mod:`benchmarks.perf.baseline`), because no
``BENCHMARK.json`` workload drives those layers at rate.
"""
