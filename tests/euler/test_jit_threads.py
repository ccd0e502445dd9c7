"""Proof-licensed threaded JIT strips: bit-identical, never silent.

The threaded dispatcher may only run behind a passing dependence proof
(:mod:`repro.analysis.deps`), and its one correctness contract is
``max |threaded - serial| == 0.0`` — enforced here across the full
riemann x reconstruction x limiter x variables matrix.  The rest pins
the licensing machinery: a denied or crashing proof serializes every
strip with a counted reason (visible in counters, steprate and the
step trace), and ``REPRO_JIT_THREADS`` parsing rejects nonsense.

Thread count binds at backend construction (like the backend itself),
so every test sets the environment *before* building solvers.
"""

import itertools

import numpy as np
import pytest

import repro.jit
from repro.analysis import deps
from repro.errors import ConfigurationError
from repro.euler import problems
from repro.euler.boundary import all_transmissive_2d
from repro.euler.solver import EulerSolver2D, SolverConfig
from repro.jit.plan import prove_stage

from tests.euler.test_jit import (
    LIMITED_SCHEMES,
    LIMITERS,
    RECONSTRUCTIONS,
    RIEMANN_SOLVERS,
    TINY_TILE_BYTES,
    VARIABLES,
    _jit_stats,
    needs_cc,
    smooth_random_2d,
)


def _twin_threaded_2d(primitive, config, monkeypatch, threads="2"):
    """(threaded jit solver, serial jit solver) from identical state."""
    monkeypatch.delenv(repro.jit.THREADS_ENV, raising=False)
    with repro.jit.backend_override("jit"):
        serial = EulerSolver2D(
            primitive.copy(), 0.01, 0.012, all_transmissive_2d(), config
        )
    monkeypatch.setenv(repro.jit.THREADS_ENV, threads)
    with repro.jit.backend_override("jit"):
        threaded = EulerSolver2D(
            primitive.copy(), 0.01, 0.012, all_transmissive_2d(), config
        )
    return threaded, serial


class TestResolveThreads:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(repro.jit.THREADS_ENV, raising=False)
        assert repro.jit.resolve_jit_threads() == 1

    def test_env_and_explicit(self, monkeypatch):
        monkeypatch.setenv(repro.jit.THREADS_ENV, "4")
        assert repro.jit.resolve_jit_threads() == 4
        assert repro.jit.resolve_jit_threads(2) == 2  # explicit wins

    @pytest.mark.parametrize("bad", ("0", "-3", "two", "1.5", ""))
    def test_bad_values_rejected(self, monkeypatch, bad):
        monkeypatch.setenv(repro.jit.THREADS_ENV, bad)
        with pytest.raises(ConfigurationError, match="REPRO_JIT_THREADS"):
            repro.jit.resolve_jit_threads()


@needs_cc
class TestThreadedBitIdentity:
    """max |threaded - serial| == 0.0 across the whole method matrix.

    Tiny grids (9x13) with a tiny tile budget force ragged multi-strip
    plans; two steps mean the second runs from threaded-produced state.
    """

    @pytest.mark.parametrize("reconstruction", RECONSTRUCTIONS)
    @pytest.mark.parametrize("riemann", RIEMANN_SOLVERS)
    def test_threaded_equals_serial(
        self, reconstruction, riemann, rng, monkeypatch
    ):
        limiters = LIMITERS if reconstruction in LIMITED_SCHEMES else ("minmod",)
        prim = smooth_random_2d(rng, 9, 13)
        for limiter, variables in itertools.product(limiters, VARIABLES):
            config = SolverConfig(
                reconstruction=reconstruction,
                riemann=riemann,
                limiter=limiter,
                variables=variables,
                rk_order=3,
                tile_bytes=TINY_TILE_BYTES,
            )
            threaded, serial = _twin_threaded_2d(prim, config, monkeypatch)
            for _ in range(2):
                assert threaded.step() == serial.step()
            label = f"{reconstruction}/{riemann}/{limiter}/{variables}"
            assert (
                np.max(np.abs(threaded.u - serial.u)) == 0.0
            ), f"threaded != serial for {label}"

    def test_threaded_strips_actually_threaded(self, rng, monkeypatch):
        prim = smooth_random_2d(rng, 24, 16)
        for variables in ("primitive", "characteristic"):
            config = SolverConfig(
                reconstruction="weno3",
                riemann="hllc",
                variables=variables,
                tile_bytes=TINY_TILE_BYTES,
            )
            threaded, serial = _twin_threaded_2d(prim, config, monkeypatch)
            for _ in range(2):
                assert threaded.step() == serial.step()
            assert np.max(np.abs(threaded.u - serial.u)) == 0.0
            stats = _jit_stats(threaded)
            assert stats["threads"] == 2
            assert stats["strips_threaded"] > 0
            assert stats["serialized"] == {}
            assert stats["fallbacks"] == {}
            assert _jit_stats(serial)["strips_threaded"] == 0

    def test_batched_ensemble_threaded_exact(self, monkeypatch):
        """The batch engine hands the x-sweep a non-contiguous target;
        the threaded path must route it through scratch bit-exactly."""
        config = SolverConfig(
            reconstruction="tvd2",
            riemann="roe",
            limiter="vanleer",
            variables="primitive",
            tile_bytes=TINY_TILE_BYTES,
        )
        machs = [1.5, 2.0, 2.5]
        monkeypatch.delenv(repro.jit.THREADS_ENV, raising=False)
        with repro.jit.backend_override("jit"):
            serial, _ = problems.two_channel_ensemble(
                machs, n_cells=16, h=8.0, config=config
            )
        monkeypatch.setenv(repro.jit.THREADS_ENV, "2")
        with repro.jit.backend_override("jit"):
            threaded, _ = problems.two_channel_ensemble(
                machs, n_cells=16, h=8.0, config=config
            )
        for _ in range(2):
            threaded.step()
            serial.step()
        assert np.max(np.abs(threaded.u - serial.u)) == 0.0
        assert threaded.engine.counters()["jit"]["strips_threaded"] > 0


@needs_cc
class TestProofLicensing:
    """Threading happens only behind a passing proof; anything else
    serializes with a counted reason — never silently."""

    @pytest.fixture(autouse=True)
    def fresh_proofs(self):
        """Proofs are cached per (spec, strip layouts) process-wide: a
        seeded prover must be asked, and must not be remembered."""
        prove_stage.cache_clear()
        yield
        prove_stage.cache_clear()

    def _threaded_solver(self, rng, monkeypatch):
        config = SolverConfig(
            reconstruction="weno3",
            riemann="hllc",
            variables="primitive",
            tile_bytes=TINY_TILE_BYTES,
        )
        return _twin_threaded_2d(
            smooth_random_2d(rng, 24, 16), config, monkeypatch
        )

    def test_denied_proof_serializes_with_reason(self, rng, monkeypatch):
        denied = deps.StripProof(
            False, "DEP002: seeded overlapping-plan denial", ()
        )
        monkeypatch.setattr(
            deps, "prove_strips", lambda *args, **kw: denied
        )
        threaded, serial = self._threaded_solver(rng, monkeypatch)
        for _ in range(2):
            assert threaded.step() == serial.step()
        assert np.max(np.abs(threaded.u - serial.u)) == 0.0
        stats = _jit_stats(threaded)
        assert stats["strips_threaded"] == 0
        assert sum(stats["serialized"].values()) > 0
        reason = next(iter(stats["serialized"]))
        assert reason.startswith("DEP002")

    def test_prover_crash_serializes_as_dep004(self, rng, monkeypatch):
        """A prover bug must cost threading, never correctness or the
        process."""

        def boom(*args, **kw):
            raise RuntimeError("seeded prover crash")

        monkeypatch.setattr(deps, "prove_strips", boom)
        threaded, serial = self._threaded_solver(rng, monkeypatch)
        for _ in range(2):
            assert threaded.step() == serial.step()
        assert np.max(np.abs(threaded.u - serial.u)) == 0.0
        stats = _jit_stats(threaded)
        assert stats["strips_threaded"] == 0
        reason = next(iter(stats["serialized"]))
        assert reason.startswith("DEP004")
        assert "seeded prover crash" in reason

    def test_real_proof_licenses_the_shipped_kernels(self, rng, monkeypatch):
        """No monkeypatching: the actual access maps of the shipped
        kernels prove out, so threading is genuinely licensed."""
        threaded, _ = self._threaded_solver(rng, monkeypatch)
        threaded.step()
        stats = _jit_stats(threaded)
        assert stats["strips_threaded"] > 0
        assert stats["serialized"] == {}

    def test_trace_record_carries_thread_counters(self, rng, monkeypatch):
        from repro.obs.trace import StepTrace

        threaded, _ = self._threaded_solver(rng, monkeypatch)
        trace = StepTrace()
        dt = threaded.step()
        record = trace.record_step(threaded, dt)
        assert record.backend == "jit"
        assert record.jit_threads == 2
        assert record.jit_strips_threaded > 0
        assert record.jit_strips_serialized == 0
        decoded = type(record).from_json(record.to_json())
        assert decoded.jit_threads == 2
