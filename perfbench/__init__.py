"""Benchmark for sentirisk: workloads, per-layer tracing and correctness checks."""
