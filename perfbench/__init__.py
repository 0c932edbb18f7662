"""Benchmark of the pulse -> alarm pipeline; see README.md."""
