"""Benchmark harness for the Adam2 reproduction (see README.md here)."""
