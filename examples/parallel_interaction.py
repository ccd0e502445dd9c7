"""The two-channel shock interaction on the real parallel runtime.

Runs the Ms = 2.2 problem of the paper's Figs. 2-3 through
``repro.par.ParallelSolver2D`` — the serial solver's engine with every
sweep's strip plan on a persistent worker team — and prints the measured
step rate, how many strips ran on the team (and why, if none did), and
the bit-for-bit check against the serial golden reference.  This is the
*measured* sibling of the modeled Fig. 4 replay in
``examples/sac_vs_fortran.py``.

The strip plan is the decomposition and it is not re-cut for the team:
``--tile-kib`` is the per-strip working-set budget, so a smaller value
cuts a sweep into more strips for the workers to split.

Run:  python examples/parallel_interaction.py --workers 4
      python examples/parallel_interaction.py --workers 2 --barrier spin \
          --grid 64 --steps 20 --no-verify
"""

import argparse
import time

import numpy as np

from repro.euler import problems
from repro.euler.solver import SolverConfig
from repro.par import ParallelSolver2D


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4, help="worker count (default 4)")
    parser.add_argument("--grid", type=int, default=48, help="cells per side (default 48)")
    parser.add_argument("--steps", type=int, default=10, help="time steps (default 10)")
    parser.add_argument(
        "--barrier", choices=["spin", "forkjoin"], default="forkjoin",
        help="team synchronisation: SaC-style spinning or OpenMP-style fork/join",
    )
    parser.add_argument("--mach", type=float, default=2.2, help="shock Mach number")
    parser.add_argument(
        "--tile-kib", type=int, default=64,
        help="strip working-set budget in KiB (default 64: 7 strips per sweep at 48 cells)",
    )
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the serial reference run (timing only)",
    )
    args = parser.parse_args()

    config = SolverConfig(
        reconstruction="pc", riemann="rusanov", rk_order=3, cfl=0.5,
        tile_bytes=args.tile_kib * 1024,
    )
    serial, setup = problems.two_channel(
        n_cells=args.grid, h=args.grid / 2.0, mach=args.mach, config=config
    )

    print(
        f"two-channel interaction, Ms = {args.mach}, {args.grid}x{args.grid} grid,"
        f" {args.steps} steps"
    )
    with ParallelSolver2D.from_serial(
        serial, workers=args.workers, barrier=args.barrier
    ) as parallel:
        start = time.perf_counter()
        parallel.run(max_steps=args.steps)
        elapsed = time.perf_counter() - start
        rate = args.steps / elapsed
        counters = parallel.engine.counters()
        threaded = counters.get("jit", {}).get("strips_threaded", 0)
        print(
            f"team: {parallel.workers} workers, barrier = {args.barrier};"
            f" {counters['tiles']} strips, {threaded} of them on the team"
            f" ({parallel.barrier_wait_seconds:.3f} s in barriers)"
        )
        for reason, strips in counters["team"]["serialized"].items():
            print(f"  {strips} strips ran serially: {reason}")
        print(
            f"measured: {elapsed:.3f} s for {args.steps} steps"
            f" -> {rate:.2f} steps/s"
        )

        if not args.no_verify:
            start = time.perf_counter()
            serial.run(max_steps=args.steps)
            serial_elapsed = time.perf_counter() - start
            difference = float(np.abs(parallel.u - serial.u).max())
            print(
                f"serial reference: {serial_elapsed:.3f} s"
                f" -> {args.steps / serial_elapsed:.2f} steps/s"
            )
            print(f"max |parallel - serial| = {difference:.2e}"
                  + ("  (bit-for-bit)" if difference == 0.0 else ""))


if __name__ == "__main__":
    main()
