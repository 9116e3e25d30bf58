"""Benchmark of the seaweeds package; see run.py and README.md."""
