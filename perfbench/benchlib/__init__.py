"""Benchmark harness for negdep: workloads, output checks and tracing.

Nothing in this package imports negdep at module import time, so that
set-up time (which includes importing negdep) can be measured.
"""
