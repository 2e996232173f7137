"""The raystat benchmark: seeded workloads, output checks, a traced
per-layer split and a result-file compare tool.  Entry point:
``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root."""
