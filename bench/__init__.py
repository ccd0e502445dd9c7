"""The repository's benchmark: six workloads over ``euler``, ``jit`` and ``serve``.

Run ``python3 -m bench --seed N`` from the repository root for every
workload, or ``python3 -m bench --workload NAME --seed N --seconds S
--trace 0|1`` for one.  Everything is measured from outside the program,
through its public functions; see ``bench/README.md``.
"""
