"""Cache blocking: plan geometry, budget resolution, and bit-identity.

The tiling layer's whole contract is that a tiled sweep performs the
*identical rounded operations* as an untiled one — strips only change
which rows a ufunc pass sees, never the arithmetic per element.  So the
differential tests here assert exact equality (max-abs difference of
0.0), across the full method menu, on odd/ragged grids whose strips do
not divide evenly, and through :class:`~repro.par.solver.ParallelSolver2D`
where the strips are what the worker team splits.  The plan tests pin the
geometry invariants (full disjoint coverage, ragged tail, clamping), the
config/env/default budget resolution, and the NumPy executor's row size
on four method/grid pairs.
"""

import itertools

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.euler import problems, tiling
from repro.euler.boundary import all_transmissive_2d, transmissive_1d
from repro.euler.solver import EulerSolver1D, EulerSolver2D, SolverConfig
from repro.par import ParallelSolver2D

RECONSTRUCTIONS = ("pc", "tvd2", "tvd3", "weno3")
RIEMANN_SOLVERS = ("rusanov", "hll", "hllc", "roe")
LIMITERS = ("minmod", "superbee", "vanleer", "mc")
#: Schemes whose stencil actually consults the limiter; pc and weno3
#: ignore it, so sweeping limiters there would re-run identical cases.
LIMITED_SCHEMES = ("tvd2", "tvd3")

#: A deliberately tiny budget: forces single-digit-row strips (often one
#: row) on the test grids, so every sweep crosses many tile boundaries.
TINY_TILE_BYTES = 2048


def smooth_random_1d(rng, n):
    primitive = np.empty((n, 3))
    primitive[:, 0] = rng.uniform(1.0, 1.4, n)
    primitive[:, 1] = rng.normal(0.0, 0.3, n)
    primitive[:, 2] = rng.uniform(1.0, 1.4, n)
    return primitive


def smooth_random_2d(rng, nx, ny):
    primitive = np.empty((nx, ny, 4))
    primitive[..., 0] = rng.uniform(1.0, 1.4, (nx, ny))
    primitive[..., 1] = rng.normal(0.0, 0.3, (nx, ny))
    primitive[..., 2] = rng.normal(0.0, 0.3, (nx, ny))
    primitive[..., 3] = rng.uniform(1.0, 1.4, (nx, ny))
    return primitive


class TestPlanTiles:
    def test_strips_cover_all_cells_disjointly(self):
        plan = tiling.plan_tiles(n_cells=100, row_bytes=1000, tile_bytes=7000)
        assert plan.strip_rows == 7
        covered = []
        for tile in plan:
            covered.extend(range(tile.start, tile.stop))
        assert covered == list(range(100))

    def test_ragged_last_strip(self):
        plan = tiling.plan_tiles(n_cells=10, row_bytes=8, tile_bytes=24)
        assert [t.cells for t in plan] == [3, 3, 3, 1]
        assert plan.tiles[-1].stop == 10

    def test_faces_overlap_by_one(self):
        plan = tiling.plan_tiles(n_cells=10, row_bytes=8, tile_bytes=32)
        for tile in plan:
            assert tile.faces == tile.cells + 1
        # adjacent strips recompute exactly the shared face
        total_faces = sum(t.faces for t in plan)
        assert total_faces == 10 + 1 + (len(plan) - 1)

    def test_budget_smaller_than_one_row_floors_at_one(self):
        plan = tiling.plan_tiles(n_cells=5, row_bytes=4096, tile_bytes=100)
        assert plan.strip_rows == 1
        assert len(plan) == 5

    def test_budget_larger_than_grid_gives_one_strip(self):
        plan = tiling.plan_tiles(n_cells=5, row_bytes=8, tile_bytes=1 << 30)
        assert plan.strip_rows == 5
        assert len(plan) == 1

    @pytest.mark.parametrize(
        "n_cells, row_bytes, tile_bytes",
        [(0, 8, 64), (5, 0, 64), (5, 8, 0), (5, 8, -1)],
    )
    def test_invalid_inputs_raise(self, n_cells, row_bytes, tile_bytes):
        with pytest.raises(ConfigurationError):
            tiling.plan_tiles(n_cells, row_bytes, tile_bytes)


class TestResolveTileBytes:
    def test_config_value_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(tiling.TILE_BYTES_ENV, "12345")
        assert tiling.resolve_tile_bytes(777) == 777

    def test_zero_config_disables_despite_env(self, monkeypatch):
        monkeypatch.setenv(tiling.TILE_BYTES_ENV, "12345")
        assert tiling.resolve_tile_bytes(0) == 0

    def test_env_wins_over_default(self, monkeypatch):
        monkeypatch.setenv(tiling.TILE_BYTES_ENV, "65536")
        assert tiling.resolve_tile_bytes(None) == 65536

    def test_default_when_nothing_set(self, monkeypatch):
        monkeypatch.delenv(tiling.TILE_BYTES_ENV, raising=False)
        assert tiling.resolve_tile_bytes(None) == tiling.DEFAULT_TILE_BYTES

    def test_env_zero_disables(self, monkeypatch):
        monkeypatch.setenv(tiling.TILE_BYTES_ENV, "0")
        assert tiling.resolve_tile_bytes(None) == 0

    def test_negative_config_raises(self):
        with pytest.raises(ConfigurationError):
            tiling.resolve_tile_bytes(-1)

    @pytest.mark.parametrize("raw", ["-5", "lots", "2.5"])
    def test_bad_env_raises(self, monkeypatch, raw):
        monkeypatch.setenv(tiling.TILE_BYTES_ENV, raw)
        with pytest.raises(ConfigurationError):
            tiling.resolve_tile_bytes(None)

    def test_negative_solver_config_raises(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(tile_bytes=-4096)


def _twin_1d(primitive, config):
    """(tiled solver, untiled solver) from the same state and method."""
    import dataclasses

    tiled = EulerSolver1D(
        primitive.copy(),
        0.01,
        transmissive_1d(),
        dataclasses.replace(config, tile_bytes=TINY_TILE_BYTES),
    )
    untiled = EulerSolver1D(
        primitive.copy(),
        0.01,
        transmissive_1d(),
        dataclasses.replace(config, tile_bytes=0),
    )
    return tiled, untiled


def _twin_2d(primitive, config):
    import dataclasses

    tiled = EulerSolver2D(
        primitive.copy(),
        0.01,
        0.012,
        all_transmissive_2d(),
        dataclasses.replace(config, tile_bytes=TINY_TILE_BYTES),
    )
    untiled = EulerSolver2D(
        primitive.copy(),
        0.01,
        0.012,
        all_transmissive_2d(),
        dataclasses.replace(config, tile_bytes=0),
    )
    return tiled, untiled


class TestTiledBitForBitSweep:
    """Every riemann x reconstruction x limiter, 1-D and 2-D, exact.

    Grid sizes are odd primes-ish (17 cells, 9x13) so the tiny budget
    produces ragged last strips along both axes, and two steps are taken
    so the second step runs from tiled-produced state.
    """

    @pytest.mark.parametrize("reconstruction", RECONSTRUCTIONS)
    @pytest.mark.parametrize("riemann", RIEMANN_SOLVERS)
    def test_tiled_equals_untiled(self, reconstruction, riemann, rng):
        limiters = LIMITERS if reconstruction in LIMITED_SCHEMES else ("minmod",)
        prim_1d = smooth_random_1d(rng, 17)
        prim_2d = smooth_random_2d(rng, 9, 13)
        for limiter, variables in itertools.product(
            limiters, ("characteristic", "primitive", "conservative")
        ):
            config = SolverConfig(
                reconstruction=reconstruction,
                riemann=riemann,
                limiter=limiter,
                variables=variables,
                rk_order=3,
            )
            label = f"{reconstruction}/{riemann}/{limiter}/{variables}"

            tiled, untiled = _twin_1d(prim_1d, config)
            for _ in range(2):
                assert tiled.step() == untiled.step()
            assert np.max(np.abs(tiled.u - untiled.u)) == 0.0, f"1-D {label}"
            assert tiled.tiles > 0

            tiled, untiled = _twin_2d(prim_2d, config)
            for _ in range(2):
                assert tiled.step() == untiled.step()
            assert np.max(np.abs(tiled.u - untiled.u)) == 0.0, f"2-D {label}"
            # tile_bytes=0 is a plan of one strip: per RK3 step one dt
            # pass and 3 stages x 2 sweeps; the tiny budget cuts many.
            assert untiled.tiles == 2 * (1 + 3 * 2)
            assert tiled.tiles > untiled.tiles


class TestTiledCounters:
    def test_zero_budget_is_a_plan_of_one_strip(self, rng):
        """``tile_bytes=0`` selects no other code: exactly one strip per
        sweep and per dt pass; a tiny budget cuts many; same bits."""
        tiled, untiled = _twin_2d(smooth_random_2d(rng, 9, 13), SolverConfig())
        assert tiled.step() == untiled.step()
        assert np.max(np.abs(tiled.u - untiled.u)) == 0.0
        t, u = tiled.engine.counters(), untiled.engine.counters()
        assert t["tile_bytes"] == TINY_TILE_BYTES
        assert u["tile_bytes"] == 0
        # one RK3 step: one dt pass, 3 stages x (x-sweep + y-sweep)
        assert u["dt_fused_strips"] == 1
        assert u["tiles"] == 1 + 3 * 2
        # the dt pass strips over members (one here); the sweeps over rows
        assert t["dt_fused_strips"] == 1
        assert t["tiles"] > u["tiles"]
        assert t["batch"] == u["batch"] == 1
        # the plan must not change the conversion accounting: one
        # conversion per GetDT pass, one per RK stage minus the stage-1
        # reuse — three per RK3 step on either plan.
        assert t["primitive_conversions"] == u["primitive_conversions"] == 3

    def test_explicit_dt_skips_fusion(self, rng):
        tiled, _ = _twin_2d(smooth_random_2d(rng, 9, 13), SolverConfig())
        tiled.step(dt=1e-4)
        counters = tiled.engine.counters()
        assert counters["dt_fused_strips"] == 0
        assert counters["tiles"] > 0  # the sweeps still tile


class TestNumpyStripPlan:
    """The NumPy executor's plan is sized by the program that runs.  An
    emitter edit that changes a flux program's slot count moves these
    pins; move them deliberately and list old -> new in CHANGES.md."""

    #: (config, grid) -> (row bytes, strips per sweep) at the default
    #: 4 MiB budget.
    PINS = [
        (SolverConfig(), 160, (87520, 4)),
        (
            SolverConfig(reconstruction="tvd2", variables="conservative", riemann="roe"),
            160,
            (74400, 3),
        ),
        (SolverConfig(reconstruction="pc"), 400, (164400, 16)),
        (SolverConfig(), 400, (218800, 22)),
    ]

    @pytest.mark.parametrize("config, grid, pin", PINS)
    def test_plan_follows_the_flux_program(self, config, grid, pin, monkeypatch):
        from repro.euler.engine import StepEngine

        monkeypatch.delenv(tiling.TILE_BYTES_ENV, raising=False)
        engine = StepEngine(
            (grid, grid, 4), (0.1, 0.1), config, [all_transmissive_2d()], backend="numpy"
        )
        plan = engine.stage_plan().sweeps[0].tiles
        assert (plan.row_bytes, len(plan)) == pin
        assert plan.tile_bytes == tiling.DEFAULT_TILE_BYTES


class TestTiledParallel:
    def test_parallel_tiled_matches_serial_untiled(self, rng):
        """Two workers on a ragged many-strip plan, exact.

        A ~1-row strip budget cuts the 19- and 11-row sweeps into odd
        strip counts, so the two workers' shares are uneven.
        """
        primitive = smooth_random_2d(rng, 19, 11)
        config = SolverConfig(
            reconstruction="tvd2", variables="primitive", rk_order=2
        )
        import dataclasses

        parallel = ParallelSolver2D(
            primitive.copy(),
            0.01,
            0.012,
            all_transmissive_2d(),
            dataclasses.replace(config, tile_bytes=TINY_TILE_BYTES),
            workers=2,
        )
        serial = EulerSolver2D(
            primitive.copy(),
            0.01,
            0.012,
            all_transmissive_2d(),
            dataclasses.replace(config, tile_bytes=0),
        )
        try:
            for _ in range(3):
                assert parallel.step() == serial.step()
            assert np.max(np.abs(parallel.u - serial.u)) == 0.0
            assert parallel.tiles > 0
            assert parallel.tile_bytes == TINY_TILE_BYTES
        finally:
            parallel.close()


class TestTiledAcceptanceProblem:
    def test_two_channel_tiled_exact(self):
        import dataclasses

        from repro.euler.solver import paper_benchmark_config

        config = paper_benchmark_config()
        tiled, _ = problems.two_channel(
            n_cells=33,
            h=16.0,
            config=dataclasses.replace(config, tile_bytes=TINY_TILE_BYTES),
        )
        untiled, _ = problems.two_channel(
            n_cells=33, h=16.0, config=dataclasses.replace(config, tile_bytes=0)
        )
        tiled.run(max_steps=5)
        untiled.run(max_steps=5)
        assert np.max(np.abs(tiled.u - untiled.u)) == 0.0
        assert tiled.time == untiled.time
        assert tiled.tiles > 0
