"""Whole-job benchmark of the flow pipeline.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload's job list through the public flow entry points
(:func:`repro.experiments.flows.run_flow`) and prints one JSON result line.
See ``perfbench/README.md`` for the workloads, metrics and layer map.
"""
