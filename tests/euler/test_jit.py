"""repro.jit: compiled kernels vs the NumPy oracle, bit for bit.

The compile layer's whole contract is that a served strip performs the
*identical rounded operations* as the NumPy path — so the differential
harness here mirrors ``test_tiling.py``: every riemann x reconstruction
x limiter x variables combination, 1-D and 2-D, on ragged grids with a
tiny tile budget, asserting ``max |jit - numpy| == 0.0`` exactly.  The
rest pins the machinery around that guarantee: backend resolution
precedence, per-strip fallback counting, the IR verifier's diagnostic
codes, and compile-failure degradation (compilation problems may only
cost speed, never correctness).

All solver-building tests construct under ``backend_override`` — the
backend binds at engine construction, so nothing here depends on the
session's ``REPRO_JIT``/compiler state except the explicitly gated
compiled-path assertions.
"""

import dataclasses
import hashlib
import itertools
import os

import numpy as np
import pytest

import repro.jit
from repro.errors import AnalysisError, ConfigurationError
from repro.euler import problems
from repro.euler.boundary import all_transmissive_2d, transmissive_1d
from repro.euler.solver import EulerSolver1D, EulerSolver2D, SolverConfig
from repro.jit import compile as jit_compile
from repro.jit.codegen import generate_source
from repro.jit.ir import IRBuilder, KernelIR, Op
from repro.jit.kernels import build_dt_ir, build_flux_ir, spec_from_config

RECONSTRUCTIONS = ("pc", "tvd2", "tvd3", "weno3")
RIEMANN_SOLVERS = ("rusanov", "hll", "hllc", "roe")
LIMITERS = ("minmod", "superbee", "vanleer", "mc")
LIMITED_SCHEMES = ("tvd2", "tvd3")
VARIABLES = ("characteristic", "primitive", "conservative")

TINY_TILE_BYTES = 2048

HAVE_CC = repro.jit.available()
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")


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


def _twin_1d(primitive, config):
    """(jit solver, numpy solver) from the same state and method."""
    with repro.jit.backend_override("jit"):
        jit = EulerSolver1D(primitive.copy(), 0.01, transmissive_1d(), config)
    with repro.jit.backend_override("numpy"):
        oracle = EulerSolver1D(primitive.copy(), 0.01, transmissive_1d(), config)
    return jit, oracle


def _twin_2d(primitive, config):
    with repro.jit.backend_override("jit"):
        jit = EulerSolver2D(
            primitive.copy(), 0.01, 0.012, all_transmissive_2d(), config
        )
    with repro.jit.backend_override("numpy"):
        oracle = EulerSolver2D(
            primitive.copy(), 0.01, 0.012, all_transmissive_2d(), config
        )
    return jit, oracle


def _jit_stats(solver):
    return solver.engine.counters()["jit"]


@needs_cc
class TestCompiledBitForBit:
    """Every riemann x reconstruction x limiter x variables, exact.

    Grid sizes (17 cells, 9x13) with a tiny budget force ragged strips;
    two steps mean the second runs from jit-produced state.  Every
    combination is served by its compiled kernel — characteristic
    variables with wide stencils included — with no fallback.
    """

    @pytest.mark.parametrize("reconstruction", RECONSTRUCTIONS)
    @pytest.mark.parametrize("riemann", RIEMANN_SOLVERS)
    def test_jit_equals_numpy(self, reconstruction, riemann, rng):
        limiters = LIMITERS if reconstruction in LIMITED_SCHEMES else ("minmod",)
        prim_1d = smooth_random_1d(rng, 17)
        prim_2d = smooth_random_2d(rng, 9, 13)
        for limiter, variables in itertools.product(limiters, VARIABLES):
            config = SolverConfig(
                reconstruction=reconstruction,
                riemann=riemann,
                limiter=limiter,
                variables=variables,
                rk_order=3,
                tile_bytes=TINY_TILE_BYTES,
            )
            label = f"{reconstruction}/{riemann}/{limiter}/{variables}"

            jit, oracle = _twin_1d(prim_1d, config)
            for _ in range(2):
                assert jit.step() == oracle.step()
            assert np.max(np.abs(jit.u - oracle.u)) == 0.0, f"1-D {label}"

            jit, oracle = _twin_2d(prim_2d, config)
            for _ in range(2):
                assert jit.step() == oracle.step()
            assert np.max(np.abs(jit.u - oracle.u)) == 0.0, f"2-D {label}"
            stats = _jit_stats(jit)
            assert stats["sweep_calls"] > 0, f"not served: {label}"
            assert stats["dt_calls"] > 0, f"dt not served: {label}"
            assert stats["fallbacks"] == {}, f"unexpected fallback: {label}"

    def test_untiled_sweeps_also_served(self, rng):
        """tile_bytes=0 disables strip planning but not the backend:
        the whole-grid sweep goes through the kernel in one call."""
        config = SolverConfig(
            reconstruction="weno3",
            riemann="hllc",
            variables="primitive",
            tile_bytes=0,
        )
        jit, oracle = _twin_2d(smooth_random_2d(rng, 9, 13), config)
        for _ in range(2):
            assert jit.step() == oracle.step()
        assert np.max(np.abs(jit.u - oracle.u)) == 0.0
        assert _jit_stats(jit)["sweep_calls"] > 0

    def test_batched_ensemble_served_and_exact(self, rng):
        config = SolverConfig(
            reconstruction="tvd2",
            riemann="roe",
            limiter="vanleer",
            variables="primitive",
            tile_bytes=TINY_TILE_BYTES,
        )
        machs = [1.5, 2.0, 2.5]
        with repro.jit.backend_override("jit"):
            jit, _ = problems.two_channel_ensemble(
                machs, n_cells=16, h=8.0, config=config
            )
        with repro.jit.backend_override("numpy"):
            oracle, _ = problems.two_channel_ensemble(
                machs, n_cells=16, h=8.0, config=config
            )
        for _ in range(2):
            jit.step()
            oracle.step()
        assert np.max(np.abs(jit.u - oracle.u)) == 0.0
        stats = jit.engine.counters()["jit"]
        assert stats["sweep_calls"] > 0 and stats["dt_calls"] > 0

    def test_counter_contract_preserved(self, rng):
        """The jit path books the same logical counters as the NumPy
        path: 3 conversions per RK3 step, fused dt strips, tiles."""
        config = SolverConfig(
            reconstruction="pc",
            variables="primitive",
            rk_order=3,
            tile_bytes=TINY_TILE_BYTES,
        )
        jit, oracle = _twin_2d(smooth_random_2d(rng, 9, 13), config)
        jit.step()
        oracle.step()
        j, n = jit.engine.counters(), oracle.engine.counters()
        assert j["backend"] == "jit" and n["backend"] == "numpy"
        assert j["primitive_conversions"] == n["primitive_conversions"] == 3
        assert j["dt_fused_strips"] > 0
        assert j["tiles"] > 0
        assert j["seconds"]["jit_sweep"] > 0.0


class TestBackendResolution:
    def test_env_words(self, monkeypatch):
        for word in ("0", "off", "numpy", "FALSE", "no"):
            monkeypatch.setenv(repro.jit.JIT_ENV, word)
            assert repro.jit.resolve_backend_name() == "numpy"
        for word in ("1", "on", "jit", "TRUE", "yes"):
            monkeypatch.setenv(repro.jit.JIT_ENV, word)
            assert repro.jit.resolve_backend_name() == "jit"

    def test_bad_env_word_raises(self, monkeypatch):
        monkeypatch.setenv(repro.jit.JIT_ENV, "fastplease")
        with pytest.raises(ConfigurationError, match="REPRO_JIT"):
            repro.jit.resolve_backend_name()

    def test_explicit_wins_over_override_and_env(self, monkeypatch):
        monkeypatch.setenv(repro.jit.JIT_ENV, "numpy")
        with repro.jit.backend_override("numpy"):
            assert repro.jit.resolve_backend_name("jit") == "jit"

    def test_override_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(repro.jit.JIT_ENV, "jit")
        with repro.jit.backend_override("numpy"):
            assert repro.jit.resolve_backend_name() == "numpy"

    def test_explicit_auto_skips_override(self, monkeypatch):
        """backend='auto' falls through the override to env/auto —
        documented escape hatch, not an accident."""
        monkeypatch.setenv(repro.jit.JIT_ENV, "numpy")
        with repro.jit.backend_override("jit"):
            assert repro.jit.resolve_backend_name("auto") == "numpy"

    def test_env_zero_forces_numpy_engine(self, monkeypatch, rng):
        """REPRO_JIT=0 is the clean-fallback switch: the engine carries
        no backend at all, and results match the jit run bitwise."""
        config = SolverConfig(
            reconstruction="weno3", variables="primitive", tile_bytes=TINY_TILE_BYTES
        )
        prim = smooth_random_2d(rng, 9, 13)
        monkeypatch.setenv(repro.jit.JIT_ENV, "0")
        disabled = EulerSolver2D(
            prim.copy(), 0.01, 0.012, all_transmissive_2d(), config
        )
        assert disabled.engine.backend is None
        assert disabled.engine.counters()["backend"] == "numpy"
        assert "jit" not in disabled.engine.counters()
        monkeypatch.delenv(repro.jit.JIT_ENV)
        if HAVE_CC:
            with repro.jit.backend_override("jit"):
                jit = EulerSolver2D(
                    prim.copy(), 0.01, 0.012, all_transmissive_2d(), config
                )
            for _ in range(2):
                assert jit.step() == disabled.step()
            assert np.max(np.abs(jit.u - disabled.u)) == 0.0

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigurationError):
            with repro.jit.backend_override("cuda"):
                pass  # pragma: no cover

    def test_bad_explicit_rejected(self):
        with pytest.raises(ConfigurationError):
            repro.jit.resolve_backend_name("cuda")


class TestSpecFromConfig:
    def test_characteristic_single_ghost_normalizes_to_primitive(self):
        """PC with characteristic variables skips projection (ng == 1),
        so the specialization is the primitive one — same kernel."""
        config = SolverConfig(reconstruction="pc", variables="characteristic")
        assert spec_from_config(config, 2).variables == "primitive"

    @needs_cc
    def test_default_config_compiles(self, rng):
        """The paper's flow-picture method — the default ``SolverConfig()``,
        weno3 on characteristic variables — has a kernel and is served."""
        spec = spec_from_config(SolverConfig(), 2)
        assert spec.variables == "characteristic" and spec.ghost_cells == 2
        jit, oracle = _twin_2d(smooth_random_2d(rng, 9, 13), SolverConfig())
        assert jit.step() == oracle.step()
        assert np.max(np.abs(jit.u - oracle.u)) == 0.0
        stats = _jit_stats(jit)
        assert stats["spec"] == spec.label() and stats["compiled"]
        assert stats["sweep_calls"] > 0 and stats["fallbacks"] == {}

    def test_label_and_symbol(self):
        config = SolverConfig(
            reconstruction="tvd2", riemann="hll", limiter="mc", variables="primitive"
        )
        spec = spec_from_config(config, 2)
        assert spec.label() == "hll/tvd2/mc/primitive/float64/2d"
        assert spec.nfields == 4 and spec.ghost_cells == 2


class TestVerifier:
    def _verify(self, ir):
        from repro.analysis.jit_verify import verify_kernel

        return verify_kernel(ir, "test/spec")

    def test_well_formed_kernels_pass(self):
        config = SolverConfig(
            reconstruction="weno3", riemann="roe", variables="primitive"
        )
        spec = spec_from_config(config, 2)
        self._verify(build_flux_ir(spec))
        self._verify(build_dt_ir(spec))

    def test_use_before_definition_is_ir001(self):
        ir = KernelIR("broken", ops=[Op("v1", "add", ("v9", "v9"))])
        ir.outputs = [("flux0", "v1")]
        with pytest.raises(AnalysisError, match="JIT-IR001") as excinfo:
            self._verify(ir)
        assert "test/spec" in str(excinfo.value)

    def test_duplicate_definition_is_ir002(self):
        b = IRBuilder("broken")
        value = b.param("x")
        ir = b.finish()
        ir.ops.append(Op(value, "const", payload=1.0))
        ir.outputs = [("flux0", value)]
        with pytest.raises(AnalysisError, match="JIT-IR002"):
            self._verify(ir)

    def test_unknown_opcode_is_ir003(self):
        ir = KernelIR("broken", ops=[Op("v1", "fma", ())])
        ir.outputs = [("flux0", "v1")]
        with pytest.raises(AnalysisError, match="JIT-IR003"):
            self._verify(ir)

    def test_missing_outputs_is_ir004(self):
        b = IRBuilder("broken")
        b.param("x")
        with pytest.raises(AnalysisError, match="JIT-IR004"):
            self._verify(b.finish())

    def test_bool_output_is_ir005(self):
        b = IRBuilder("broken")
        mask = b.lt(b.param("x"), 0.0)
        ir = b.finish()
        ir.outputs = [("flux0", mask)]
        with pytest.raises(AnalysisError, match="JIT-IR005"):
            self._verify(ir)

    def test_broken_emitter_names_specialization(self, monkeypatch):
        """An emitter bug propagates as AnalysisError naming the spec —
        it is NOT a counted fallback (that would hide the bug)."""
        from repro.euler import riemann as riemann_pkg
        from repro.jit import kernels

        def broken_emitter(b, left, right, gamma, gm1):
            return ["v9999"] * 4  # undefined values

        monkeypatch.setitem(
            kernels.__dict__, "get_riemann_emitter", lambda name: broken_emitter
        )
        config = SolverConfig(
            reconstruction="pc", riemann="hllc", variables="primitive"
        )
        spec = spec_from_config(config, 2)
        ir = build_flux_ir(spec)
        from repro.analysis.jit_verify import verify_kernel

        with pytest.raises(AnalysisError, match="hllc/pc"):
            verify_kernel(ir, spec.label())


class TestCompileLayer:
    def test_compile_failure_degrades_per_strip(self, rng, monkeypatch, tmp_path):
        """No compiler -> CompileError -> counted fallback, exact NumPy
        results; correctness can never depend on cc being present."""
        monkeypatch.setenv(jit_compile.CC_ENV, "definitely-not-a-compiler")
        monkeypatch.setenv(jit_compile.CACHE_ENV, str(tmp_path / "cache"))
        # A fresh in-process cache so previously loaded kernels are
        # invisible to this test.
        monkeypatch.setattr(jit_compile, "_LOADED", {})
        config = SolverConfig(
            reconstruction="pc", variables="primitive", tile_bytes=TINY_TILE_BYTES
        )
        prim = smooth_random_2d(rng, 9, 13)
        jit, oracle = _twin_2d(prim, config)
        for _ in range(2):
            assert jit.step() == oracle.step()
        assert np.max(np.abs(jit.u - oracle.u)) == 0.0
        stats = _jit_stats(jit)
        assert stats["sweep_calls"] == 0
        assert any("compile failed" in reason for reason in stats["fallbacks"])

    def test_compile_failure_plans_strips_for_numpy(self, rng, monkeypatch, tmp_path):
        """A backend that will decline every strip must not size them:
        the NumPy programs do the work, so the plan is the NumPy
        backend's (many small strips), not the compiled sweep's few."""
        monkeypatch.setenv(jit_compile.CC_ENV, "definitely-not-a-compiler")
        monkeypatch.setenv(jit_compile.CACHE_ENV, str(tmp_path / "cache"))
        monkeypatch.setattr(jit_compile, "_LOADED", {})
        config = SolverConfig(tile_bytes=1 << 16)
        jit, oracle = _twin_2d(smooth_random_2d(rng, 20, 24), config)
        for _ in range(2):
            assert jit.step() == oracle.step()
        assert np.max(np.abs(jit.u - oracle.u)) == 0.0
        assert jit.engine._tile_plans == oracle.engine._tile_plans
        assert jit.engine.counters()["tiles"] == oracle.engine.counters()["tiles"]
        stats = _jit_stats(jit)
        assert stats["sweep_calls"] == 0 and not stats["compiled"]
        assert any("compile failed" in reason for reason in stats["fallbacks"])

    @needs_cc
    def test_disk_cache_hit_skips_compilation(self, monkeypatch, tmp_path):
        monkeypatch.setenv(jit_compile.CACHE_ENV, str(tmp_path / "cache"))
        monkeypatch.setattr(jit_compile, "_LOADED", {})
        config = SolverConfig(
            reconstruction="pc", riemann="rusanov", variables="primitive"
        )
        spec = spec_from_config(config, 1)
        source = generate_source(spec, build_flux_ir(spec), build_dt_ir(spec))
        before = jit_compile.compile_stats()
        jit_compile.load_kernel(source, spec.ndim)
        monkeypatch.setattr(jit_compile, "_LOADED", {})  # drop in-process
        jit_compile.load_kernel(source, spec.ndim)
        after = jit_compile.compile_stats()
        assert after["compiles"] == before["compiles"] + 1
        assert after["cache_hits"] >= before["cache_hits"] + 1

    @needs_cc
    def test_corrupt_cache_entry_is_rebuilt(self, rng, monkeypatch, tmp_path):
        """Garbage under a specialization's cache name must not disable
        the compiled path: the process that finds it unlinks, rebuilds
        and serves.  (The entry is planted, never loaded here first: a
        second dlopen of a loaded path would not read the file at all.)"""
        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.setenv(jit_compile.CACHE_ENV, str(cache))
        monkeypatch.setattr(jit_compile, "_LOADED", {})
        config = SolverConfig(reconstruction="pc", variables="primitive")
        spec = spec_from_config(config, 2)
        source = generate_source(spec, build_flux_ir(spec), build_dt_ir(spec))
        digest = hashlib.sha256(source.encode()).hexdigest()
        cached = cache / f"{digest}.so"
        cached.write_bytes(b"not an ELF object")
        before = jit_compile.compile_stats()
        jit, oracle = _twin_2d(smooth_random_2d(rng, 9, 13), config)
        for _ in range(2):
            assert jit.step() == oracle.step()
        assert np.max(np.abs(jit.u - oracle.u)) == 0.0
        stats = _jit_stats(jit)
        assert stats["compiled"] and stats["fallbacks"] == {}
        assert stats["compiles"] == before["compiles"] + 1
        assert cached.stat().st_size > 1024  # a real shared object again

    @needs_cc
    def test_disk_cache_is_bounded_and_lru(self, monkeypatch, tmp_path):
        """A cache directory past the cap shrinks to the cap on the next
        build — oldest mtime first, the fresh kernel never — and a disk
        hit refreshes an entry's mtime, so eviction is LRU, not FIFO."""
        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.setenv(jit_compile.CACHE_ENV, str(cache))
        monkeypatch.setattr(jit_compile, "_LOADED", {})
        cap = jit_compile.MAX_CACHE_ENTRIES
        for index in range(cap + 8):
            for suffix in (".so", ".c"):
                dummy = cache / f"{index:064x}{suffix}"
                dummy.write_bytes(b"stale")
                os.utime(dummy, (1_000_000 + index, 1_000_000 + index))
        config = SolverConfig(
            reconstruction="pc", riemann="rusanov", variables="primitive"
        )
        spec = spec_from_config(config, 1)
        source = generate_source(spec, build_flux_ir(spec), build_dt_ir(spec))
        before = jit_compile.compile_stats()
        kernel = jit_compile.load_kernel(source, spec.ndim)
        after = jit_compile.compile_stats()
        assert after["compiles"] == before["compiles"] + 1
        assert after["evictions"] == before["evictions"] + 9
        assert kernel.path.exists() and kernel.path.stat().st_size > 1024
        assert len(list(cache.glob("*.so"))) == cap
        assert len(list(cache.glob("*.c"))) == cap
        # the nine oldest went, as pairs; the youngest dummies stayed
        assert not (cache / f"{8:064x}.so").exists()
        assert not (cache / f"{8:064x}.c").exists()
        assert (cache / f"{9:064x}.so").exists()

        os.utime(kernel.path, (1_000, 1_000))  # now the oldest entry...
        monkeypatch.setattr(jit_compile, "_LOADED", {})
        jit_compile.load_kernel(source, spec.ndim)  # ...until a disk hit
        assert jit_compile.compile_stats()["compiles"] == after["compiles"]
        assert kernel.path.stat().st_mtime > 1_000_000 + cap + 8

    @needs_cc
    def test_source_embeds_spec_and_hex_constants(self):
        config = SolverConfig(
            reconstruction="weno3", riemann="roe", variables="primitive"
        )
        spec = spec_from_config(config, 2)
        source = generate_source(spec, build_flux_ir(spec), build_dt_ir(spec))
        assert spec.label() in source
        assert "-ffp-contract=off" in " ".join(jit_compile.CFLAGS)
        assert "0x1." in source  # hex-float literals, not decimal repr
        assert "fmin(" not in source and "fmax(" not in source


class TestJitStripPlanning:
    def test_jit_rows_are_leaner_than_numpy_rows(self):
        from repro.euler import tiling

        config = SolverConfig(reconstruction="weno3", riemann="roe")
        numpy_row = tiling.sweep_row_bytes(128, 4, config, 2)
        jit_row = tiling.jit_sweep_row_bytes(128, 4, 2)
        assert jit_row < numpy_row
        # 2*ng stencil rows + output + two rolling flux rows, 8B doubles
        assert jit_row == (2 * 2 + 1 + 1 + 2) * 128 * 4 * 8
