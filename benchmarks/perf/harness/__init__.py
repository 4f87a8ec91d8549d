"""The perf benchmark's harness; ``run.py`` next to this package is the entry."""
