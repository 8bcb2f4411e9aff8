"""Benchmark for the IFoT middleware reproduction (see README.md here)."""
