"""Benchmark harness for the live messaging runtime (see run.py)."""
