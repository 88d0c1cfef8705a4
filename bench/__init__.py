"""Repository benchmark: four workloads, end-to-end metrics, per-layer trace.

``python3 bench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` is the entry point; see ``bench/README.md``.
"""
