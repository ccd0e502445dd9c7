"""repro.jit: the machinery around the compiled kernels.

The compile layer's whole contract is that a served strip performs the
*identical rounded operations* as the NumPy path.  The lattice strategy
(``test_single_path.py``) draws that at 0.0; the differential harness
here mirrors ``test_tiling.py``: every riemann x reconstruction x
limiter x variables combination, 1-D and 2-D, on ragged grids with a
tiny tile budget, asserting ``max |jit - numpy| == 0.0`` exactly.  The
rest pins the machinery around that guarantee: the counter contract,
backend resolution precedence, per-strip fallback counting, the IR
verifier's diagnostic codes, and compile-failure degradation
(compilation problems may only cost speed, never correctness).

All solver-building tests construct under ``backend_override`` — the
backend binds at engine construction, so nothing here depends on the
session's ``REPRO_JIT``/compiler state except the explicitly gated
compiled-path assertions.
"""

import dataclasses
import hashlib
import itertools
import json
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

from tests.euler.draws import (
    HAVE_CC,
    LIMITED_SCHEMES,
    LIMITERS,
    RECONSTRUCTIONS,
    RIEMANN,
    VARIABLES,
    needs_cc,
    smooth,
)

TINY_TILE_BYTES = 2048


def _twin_1d(primitive, config):
    """(jit solver, numpy solver) from the same state and method."""
    with repro.jit.backend_override("jit"):
        jit = EulerSolver1D(primitive.copy(), 0.01, transmissive_1d(), config)
    with repro.jit.backend_override("numpy"):
        oracle = EulerSolver1D(primitive.copy(), 0.01, transmissive_1d(), config)
    return jit, oracle


def _twin_2d(primitive, config):
    """(jit solver, numpy solver) from the same state and method."""
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


def _forget_acquired_kernels():
    """Empty the per-process (IR pair, source, program pair) caches, so
    the next engine of any spec builds and verifies again."""
    from repro.jit import kernels, numpy_eval

    for cache in (kernels.kernel_irs, kernels.kernel_source, numpy_eval.kernel_programs):
        cache.cache_clear()


def _source(config, ndim):
    spec = spec_from_config(config, ndim)
    return generate_source(spec, build_flux_ir(spec), build_dt_ir(spec))


@needs_cc
class TestCompiledBitForBit:
    """Every riemann x reconstruction x limiter x variables, exact.

    Grid sizes (17 cells, 9x13) with a tiny budget force ragged strips;
    two steps mean the second runs from jit-produced state.  Every
    combination is served by its compiled kernel — characteristic
    variables with wide stencils included — with no fallback.
    """

    @pytest.mark.parametrize("reconstruction", RECONSTRUCTIONS)
    @pytest.mark.parametrize("riemann", RIEMANN)
    def test_jit_equals_numpy(self, reconstruction, riemann, rng):
        limiters = LIMITERS if reconstruction in LIMITED_SCHEMES else ("minmod",)
        prim_1d = smooth(rng, (17,), 3)
        prim_2d = smooth(rng, (9, 13), 4)
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
        jit, oracle = _twin_2d(smooth(rng, (9, 13), 4), config)
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
        jit, oracle = _twin_2d(smooth(rng, (9, 13), 4), config)
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
        prim = smooth(rng, (9, 13), 4)
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
        jit, oracle = _twin_2d(smooth(rng, (9, 13), 4), SolverConfig())
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

        # ... and on either executor, at the one place both acquire it
        prim = np.ones((6, 5, 4))
        try:
            for backend in ("numpy", "jit"):
                _forget_acquired_kernels()
                with repro.jit.backend_override(backend):
                    solver = EulerSolver2D(prim, 0.1, 0.1, all_transmissive_2d(), config)
                with pytest.raises(AnalysisError, match="hllc/pc"):
                    solver.step()
        finally:
            _forget_acquired_kernels()


class TestOneAcquisition:
    def test_solvers_of_one_spec_build_its_kernel_once(self, monkeypatch):
        """N solvers of one spec (different ``cfl``, as a service shard
        sees them) share one built-and-verified IR pair, one printed
        source and one scheduled program pair, whichever executor runs —
        and what ``bench/layers.compiled_kernel`` regenerates is still
        the very object the backend holds."""
        from repro.jit import kernels

        calls = []
        build = kernels.build_flux_ir
        monkeypatch.setattr(
            kernels, "build_flux_ir", lambda spec: calls.append(spec) or build(spec)
        )
        _forget_acquired_kernels()
        config = SolverConfig(reconstruction="pc", riemann="hllc")
        spec = spec_from_config(config, 1)
        backends = ("numpy", "jit") if repro.jit.available() else ("numpy",)
        try:
            for backend in backends:
                for cfl in (0.3, 0.4, 0.5):
                    with repro.jit.backend_override(backend):
                        solver, _ = problems.sod(
                            n_cells=24, config=dataclasses.replace(config, cfl=cfl)
                        )
                    solver.run(max_steps=2)
                    assert solver.engine.spec == spec
            assert calls == [spec]
            if "jit" in backends:
                source = generate_source(spec, build(spec), build_dt_ir(spec))
                assert source == kernels.kernel_source(spec)
                assert jit_compile.load_kernel(source, 1) is solver.engine.backend._kernel
        finally:
            _forget_acquired_kernels()


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
        prim = smooth(rng, (9, 13), 4)
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
        jit, oracle = _twin_2d(smooth(rng, (20, 24), 4), config)
        for _ in range(2):
            assert jit.step() == oracle.step()
        assert np.max(np.abs(jit.u - oracle.u)) == 0.0
        assert [phase.tiles for phase in jit.engine.stage_plan().sweeps] == [
            phase.tiles for phase in oracle.engine.stage_plan().sweeps
        ]
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
        source = _source(config, 2)
        cached = cache / f"{jit_compile.toolchain().entry(source)}.so"
        cached.write_bytes(b"not an ELF object")
        cached.with_suffix(".vec").write_text('{"sweep": 8, "dt": 8}')
        before = jit_compile.compile_stats()
        jit, oracle = _twin_2d(smooth(rng, (9, 13), 4), config)
        for _ in range(2):
            assert jit.step() == oracle.step()
        assert np.max(np.abs(jit.u - oracle.u)) == 0.0
        stats = _jit_stats(jit)
        assert stats["compiled"] and stats["fallbacks"] == {}
        assert stats["compiles"] == before["compiles"] + 1
        assert cached.stat().st_size > 1024  # a real shared object again
        assert stats["vector"] != {"sweep": 8, "dt": 8}  # and its own report

    @needs_cc
    def test_disk_cache_is_bounded_and_lru(self, monkeypatch, tmp_path):
        """A cache directory past the cap shrinks to the cap on the next
        build — oldest mtime first, the fresh kernel never, an entry's
        three files together — and a disk hit refreshes an entry's
        mtime, so eviction is LRU, not FIFO.  Entries named the old way
        (``sha256(source)``, no sidecar) age out through the same bound."""
        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.setenv(jit_compile.CACHE_ENV, str(cache))
        monkeypatch.setattr(jit_compile, "_LOADED", {})
        cap = jit_compile.MAX_CACHE_ENTRIES
        for index in range(cap + 8):
            # every third dummy is an old-scheme pair without a sidecar
            for suffix in (".so", ".c") + ((".vec",) if index % 3 else ()):
                dummy = cache / f"{index:064x}{suffix}"
                dummy.write_bytes(b"stale")
                os.utime(dummy, (1_000_000 + index, 1_000_000 + index))
        config = SolverConfig(
            reconstruction="pc", riemann="rusanov", variables="primitive"
        )
        source = _source(config, 1)
        before = jit_compile.compile_stats()
        kernel = jit_compile.load_kernel(source, 1)
        after = jit_compile.compile_stats()
        assert after["compiles"] == before["compiles"] + 1
        assert after["evictions"] == before["evictions"] + 9
        assert kernel.path.exists() and kernel.path.stat().st_size > 1024
        assert len(list(cache.glob("*.so"))) == cap
        assert len(list(cache.glob("*.c"))) == cap
        assert len(list(cache.glob("*.vec"))) == len(
            [index for index in range(9, cap + 8) if index % 3]
        ) + 1
        # the nine oldest went, whole; the youngest dummies stayed
        for suffix in (".so", ".c", ".vec"):
            assert not (cache / f"{8:064x}{suffix}").exists()
        assert (cache / f"{9:064x}.so").exists()

        os.utime(kernel.path, (1_000, 1_000))  # now the oldest entry...
        monkeypatch.setattr(jit_compile, "_LOADED", {})
        jit_compile.load_kernel(source, 1)  # ...until a disk hit
        assert jit_compile.compile_stats()["compiles"] == after["compiles"]
        assert kernel.path.stat().st_mtime > 1_000_000 + cap + 8

    @needs_cc
    def test_entry_name_covers_flags_compiler_and_target(self, monkeypatch, tmp_path):
        """The stale-object bug: entries were named by source text alone,
        so a cache warmed by another flag set, compiler or CPU kept
        serving its objects.  Each of the three is now a different name."""
        cache = tmp_path / "cache"
        monkeypatch.setenv(jit_compile.CACHE_ENV, str(cache))
        monkeypatch.delenv(jit_compile.CC_ENV, raising=False)
        monkeypatch.setattr(jit_compile, "_LOADED", {})
        monkeypatch.setattr(jit_compile, "_TOOLCHAINS", {})
        source = _source(SolverConfig(reconstruction="pc", riemann="rusanov"), 1)
        compiles = lambda: jit_compile.compile_stats()["compiles"]  # noqa: E731
        objects = lambda: sorted(path.name for path in cache.glob("*.so"))  # noqa: E731

        # a cache warmed by the old scheme is not even looked at
        old = cache / f"{hashlib.sha256(source.encode()).hexdigest()}.so"
        cache.mkdir()
        old.write_bytes(b"an -O2 object from before")
        os.utime(old, (1_000, 1_000))

        chain = jit_compile.toolchain()
        start = compiles()
        vector = jit_compile.load_kernel(source, 1)
        assert compiles() == start + 1 and len(objects()) == 2
        assert old.read_bytes() == b"an -O2 object from before"
        assert old.stat().st_mtime == 1_000

        # same source, other flag tuple: a second entry, not a hit
        reference = jit_compile._load(source, 1, chain.reference())
        assert compiles() == start + 2 and len(objects()) == 3
        assert reference is not vector and reference.path != vector.path

        # other compiler (same binary under another path): a miss
        other = tmp_path / "othercc"
        other.symlink_to(chain.compiler)
        monkeypatch.setenv(jit_compile.CC_ENV, str(other))
        assert jit_compile.toolchain().compiler == str(other)
        jit_compile.load_kernel(source, 1)
        assert compiles() == start + 3 and len(objects()) == 4
        monkeypatch.delenv(jit_compile.CC_ENV)
        assert jit_compile.toolchain() is chain  # memoised, not re-probed

        # other CPU behind -march=native: a miss
        moved = dataclasses.replace(chain, target="someothercpu-0123456789ab")
        monkeypatch.setattr(jit_compile, "_TOOLCHAINS", {None: moved})
        jit_compile.load_kernel(source, 1)
        assert compiles() == start + 4 and len(objects()) == 5

    @needs_cc
    def test_toolchain_resolves_with_one_subprocess(self, monkeypatch, tmp_path):
        """Compiler, version, flags and native target come from a single
        driver call, memoised: loads after the first spawn nothing."""
        monkeypatch.setenv(jit_compile.CACHE_ENV, str(tmp_path / "cache"))
        monkeypatch.setattr(jit_compile, "_LOADED", {})
        monkeypatch.setattr(jit_compile, "_TOOLCHAINS", {})
        source = _source(SolverConfig(reconstruction="pc", riemann="rusanov"), 1)
        calls = []
        real_run = jit_compile.subprocess.run

        def counting_run(command, **kwargs):
            calls.append(command)
            return real_run(command, **kwargs)

        monkeypatch.setattr(jit_compile.subprocess, "run", counting_run)
        chain = jit_compile.toolchain()
        assert len(calls) == 1 and "-###" in calls[0]
        assert chain.flags == jit_compile.CFLAGS and chain.version != "unknown"
        assert chain.target and chain.family in ("gcc", "clang")
        jit_compile.load_kernel(source, 1)  # the build itself
        assert len(calls) == 2
        monkeypatch.setattr(jit_compile, "_LOADED", {})
        jit_compile.load_kernel(source, 1)  # disk hit
        jit_compile.load_kernel(source, 1)  # in-process hit
        assert len(calls) == 2

    @needs_cc
    def test_vector_report_survives_a_disk_hit(self, monkeypatch, tmp_path):
        """The report is part of the entry: written beside the .so, read
        back by a process that never compiled, and an entry that lost it
        is rebuilt rather than served unobserved."""
        monkeypatch.setenv(jit_compile.CACHE_ENV, str(tmp_path / "cache"))
        monkeypatch.setattr(jit_compile, "_LOADED", {})
        source = _source(SolverConfig(reconstruction="pc", riemann="rusanov"), 2)
        built = jit_compile.load_kernel(source, 2)
        assert set(built.vector) == {"sweep", "dt"}
        sidecar = built.path.with_suffix(".vec")
        assert json.loads(sidecar.read_text()) == built.vector
        if jit_compile.toolchain().family is None:
            assert built.vector == {"sweep": None, "dt": None}
        else:
            assert all(isinstance(width, int) for width in built.vector.values())

        compiles = jit_compile.compile_stats()["compiles"]
        monkeypatch.setattr(jit_compile, "_LOADED", {})
        sidecar.write_text(json.dumps({"sweep": 48, "dt": 24}))  # what is on disk...
        assert jit_compile.load_kernel(source, 2).vector == {"sweep": 48, "dt": 24}
        assert jit_compile.compile_stats()["compiles"] == compiles  # ...is what is read

        monkeypatch.setattr(jit_compile, "_LOADED", {})
        sidecar.unlink()
        assert jit_compile.load_kernel(source, 2).vector == built.vector
        assert jit_compile.compile_stats()["compiles"] == compiles + 1

    @needs_cc
    def test_scalar_kernel_is_reported_runs_and_is_exact(self, rng, monkeypatch, tmp_path):
        """A kernel whose loops cannot vectorise (a volatile access in
        each body) says so — 0, not a silent 2-3x — and is still served
        and still bit-for-bit."""
        if jit_compile.toolchain().family is None:
            pytest.skip("this compiler has no vectorisation report to read")
        from repro.jit import backend, codegen, kernels

        def doctored(spec, flux_ir, dt_ir):
            source = generate_source(spec, flux_ir, dt_ir)
            for loop in (codegen.SWEEP_CROSS_LOOP, codegen.DT_CELL_LOOP):
                assert loop in source.split("\n")
                source = source.replace(
                    loop, loop + "\n volatile double sink = 0.0; (void)sink;"
                )
            return source

        monkeypatch.setenv(jit_compile.CACHE_ENV, str(tmp_path / "cache"))
        monkeypatch.setattr(jit_compile, "_LOADED", {})
        # past the per-process source cache, which must not keep the doctored text
        monkeypatch.setattr(
            backend, "kernel_source", lambda spec: doctored(spec, *kernels.kernel_irs(spec))
        )
        config = SolverConfig(tile_bytes=TINY_TILE_BYTES)
        jit, oracle = _twin_2d(smooth(rng, (9, 13), 4), config)
        for _ in range(2):
            assert jit.step() == oracle.step()
        assert np.max(np.abs(jit.u - oracle.u)) == 0.0
        stats = _jit_stats(jit)
        assert stats["sweep_calls"] > 0 and stats["fallbacks"] == {}
        assert stats["vector"] == {"sweep": 0, "dt": 0}

    @needs_cc
    def test_rejected_flags_get_one_retry_with_the_reference_tuple(
        self, rng, monkeypatch, tmp_path
    ):
        """A compiler that does not know the vector flags still ends in a
        loaded kernel: one retry with REFERENCE_CFLAGS, a counted reason,
        and no second failing attempt for the next kernel."""
        real = jit_compile.find_compiler()
        fake = tmp_path / "fakecc"
        fake.write_text(
            "#!/bin/sh\n"
            'for arg in "$@"; do\n'
            '  if [ "$arg" = "-march=native" ]; then\n'
            '    echo "fakecc: error: unrecognized option -march=native" >&2; exit 1\n'
            "  fi\n"
            "done\n"
            f'exec {real} "$@"\n'
        )
        fake.chmod(0o755)
        monkeypatch.setenv(jit_compile.CC_ENV, str(fake))
        monkeypatch.setenv(jit_compile.CACHE_ENV, str(tmp_path / "cache"))
        monkeypatch.setattr(jit_compile, "_LOADED", {})
        monkeypatch.setattr(jit_compile, "_TOOLCHAINS", {})
        monkeypatch.setitem(jit_compile._STATS, "flag_fallbacks", {})
        commands = []
        real_run = jit_compile.subprocess.run

        def recording_run(command, **kwargs):
            commands.append(command)
            return real_run(command, **kwargs)

        monkeypatch.setattr(jit_compile.subprocess, "run", recording_run)
        config = SolverConfig(
            reconstruction="pc", variables="primitive", tile_bytes=TINY_TILE_BYTES
        )
        jit, oracle = _twin_2d(smooth(rng, (9, 13), 4), config)
        for _ in range(2):
            assert jit.step() == oracle.step()
        assert np.max(np.abs(jit.u - oracle.u)) == 0.0
        stats = _jit_stats(jit)
        assert stats["compiled"] and stats["sweep_calls"] > 0 and stats["fallbacks"] == {}
        (reason, count), = stats["flag_fallbacks"].items()
        assert reason.startswith("flag fallback: ") and "-march=native" in reason
        assert count == 1
        assert jit_compile.toolchain().flags == jit_compile.REFERENCE_CFLAGS
        builds = [command for command in commands if "-###" not in command]
        assert ["-march=native" in command for command in builds] == [True, False]

        # the next kernel of this process goes straight to the reference flags
        jit_compile.load_kernel(_source(SolverConfig(reconstruction="pc"), 1), 1)
        builds = [command for command in commands if "-###" not in command]
        assert ["-march=native" in command for command in builds] == [True, False, False]
        assert sum(jit_compile.compile_stats()["flag_fallbacks"].values()) == 1

    @needs_cc
    def test_source_embeds_spec_and_hex_constants(self, monkeypatch, tmp_path):
        config = SolverConfig(
            reconstruction="weno3", riemann="roe", variables="primitive"
        )
        spec = spec_from_config(config, 2)
        source = generate_source(spec, build_flux_ir(spec), build_dt_ir(spec))
        assert spec.label() in source
        assert "-ffp-contract=off" in " ".join(jit_compile.CFLAGS)
        assert "0x1." in source  # hex-float literals, not decimal repr
        assert "fmin(" not in source and "fmax(" not in source

        # no value-changing flag is in either tuple, or can be put there
        from repro.jit import codegen

        assert len(codegen.FORBIDDEN_CFLAGS) == 8
        for flags in (codegen.CFLAGS, codegen.REFERENCE_CFLAGS):
            assert isinstance(flags, tuple) and all(isinstance(f, str) for f in flags)
            assert not set(flags) & set(codegen.FORBIDDEN_CFLAGS)
            codegen.check_value_neutral(flags)
        for flag in codegen.FORBIDDEN_CFLAGS:
            with pytest.raises(ValueError, match="value-changing"):
                codegen.check_value_neutral(codegen.CFLAGS + (flag,))
        with pytest.raises(ValueError, match="-ffp-contract=off"):
            codegen.check_value_neutral(("-O3", "-fPIC", "-shared"))
        # ... not even past the import-time check: the build itself refuses
        monkeypatch.setenv(jit_compile.CACHE_ENV, str(tmp_path / "cache"))
        monkeypatch.setattr(jit_compile, "_LOADED", {})
        fast = dataclasses.replace(
            jit_compile.toolchain(), flags=codegen.CFLAGS + ("-ffast-math",)
        )
        with pytest.raises(ValueError, match="-ffast-math"):
            jit_compile._load(source, 2, fast)
        assert not list((tmp_path / "cache").glob("*.so"))


class TestJitStripPlanning:
    def test_jit_rows_are_leaner_than_numpy_rows(self):
        from repro.euler import tiling

        from repro.jit.ir import BOOL, F64
        from repro.jit.numpy_eval import kernel_programs

        config = SolverConfig(reconstruction="weno3", riemann="roe")
        program, _ = kernel_programs(spec_from_config(config, 2))
        numpy_row = tiling.sweep_row_bytes(128, 4, program, 2)
        jit_row = tiling.jit_sweep_row_bytes(128, 4, 2)
        # 2*ng stencil rows + output + two rolling flux rows, 8B doubles
        assert jit_row == (2 * 2 + 1 + 1 + 2) * 128 * 4 * 8
        # the NumPy executor's row is the compiled row plus one plane per
        # scratch slot of the program that runs
        held = len(program.slots[F64]) * 8 + len(program.slots[BOOL])
        assert numpy_row == jit_row + held * 128 and held > 0
