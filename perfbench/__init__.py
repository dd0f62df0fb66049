"""Open-loop tail, catch-up and batch-replay benchmark for jitsu_ray.

Run it from the repository root as ``python3 perfbench/run.py --workload
<name>``; see ``perfbench/README.md``.
"""
