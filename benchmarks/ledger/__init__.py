"""The perf ledger: one command, four workloads, end-to-end metrics with
bounds and per-layer numbers from a traced run.  See README.md."""
