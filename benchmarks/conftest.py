"""Conventions of the benchmark harness.

Each benchmark file regenerates one of the paper's tables or figures (at a
reduced-but-representative scale so the whole suite stays runnable) and
asserts the *shape* of the result: who wins, by roughly what factor, and
where the crossovers fall.  Absolute numbers are recorded by pytest-benchmark
for regression tracking.
"""
