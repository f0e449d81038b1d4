"""End-to-end and per-layer wall-clock benchmark of the TReX serving stack.

Run one workload with ``python3 perfbench/run.py --workload paper-flat
--seed 1 --seconds 10 --trace 0`` from the repository root; see
``perfbench/README.md``.
"""
