"""Benchmark of the ecgseg pipeline; see NOTES.md and run.py."""
