"""``python -m repro.lint`` end to end."""

import json
import subprocess
import sys

import pytest

from repro.analysis.cli import builtin_targets, lint_sac_source, main
from repro.obs.export import read_diagnostics_jsonl

BROKEN_SAC = """
double[.] f(double s) {
  return( with { ([0] <= [i] < [12]) : s; } : genarray([10], 0.0) );
}
"""

UNPARSEABLE_SAC = "double f( { this is not SaC"

RACY_FORGED_F90 = """
SUBROUTINE F(A, N)
  INTEGER N
  REAL*8 A(N)
  DO i = 2, N
    A(i) = A(i - 1) + 1.D0
  END DO
END
"""


class TestBuiltins:
    def test_builtin_programs_lint_clean(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
        for name, _, _ in builtin_targets():
            assert f"checked {name}" in out

    def test_builtin_target_list(self):
        names = [name for name, _, _ in builtin_targets()]
        assert names == [
            "kernels.sac",
            "euler1d.sac",
            "euler2d.sac",
            "euler2d.f90",
            "getdt.f90",
        ]


class TestSeededErrors:
    def test_broken_sac_file_fails(self, tmp_path, capsys):
        path = tmp_path / "broken.sac"
        path.write_text(BROKEN_SAC)
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "SAC-WL001" in out
        assert "1 error(s)" in out

    def test_unparseable_file_is_lint_fail(self, tmp_path, capsys):
        path = tmp_path / "junk.sac"
        path.write_text(UNPARSEABLE_SAC)
        assert main([str(path)]) == 1
        assert "LINT-FAIL" in capsys.readouterr().out

    def test_clean_f90_file_passes(self, tmp_path):
        path = tmp_path / "ok.f90"
        path.write_text(RACY_FORGED_F90)  # racy but serialised: no error
        assert main([str(path)]) == 0

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "prog.c"
        path.write_text("int main() { return 0; }")
        with pytest.raises(SystemExit):
            main([str(path)])


class TestJsonOutput:
    def test_json_round_trips_through_obs_export(self, tmp_path):
        source = tmp_path / "broken.sac"
        source.write_text(BROKEN_SAC)
        output = tmp_path / "lint.jsonl"
        assert main([str(source), "--json", "--output", str(output)]) == 1
        diagnostics = read_diagnostics_jsonl(output)
        assert [d.code for d in diagnostics] == ["SAC-WL001"]
        assert diagnostics[0].severity.value == "error"

    def test_json_lines_carry_kind(self, tmp_path, capsys):
        source = tmp_path / "broken.sac"
        source.write_text(BROKEN_SAC)
        assert main([str(source), "--json"]) == 1
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert lines and all(p["kind"] == "diagnostic" for p in lines)


class TestDefines:
    def test_define_parsing(self, tmp_path):
        source = tmp_path / "defs.sac"
        source.write_text(
            """
            double[.] f(double s) {
              return( with { ([0] <= [i] < [N]) : s; } : genarray([N], 0.0) );
            }
            """
        )
        assert main([str(source), "-D", "N=8"]) == 0

    def test_bad_define_rejected(self):
        with pytest.raises(SystemExit):
            main(["-D", "NOVALUE"])
        with pytest.raises(SystemExit):
            main(["-D", "X=notanumber"])


class TestModuleEntryPoint:
    def test_python_m_repro_lint_runs(self, tmp_path):
        """The documented CI invocation works as a subprocess."""
        import os
        import pathlib

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        source = tmp_path / "broken.sac"
        source.write_text(BROKEN_SAC)
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(source)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 1
        assert "SAC-WL001" in result.stdout


class TestPipelineStage:
    def test_no_pipeline_skips_the_o3_compile(self, tmp_path):
        engine = lint_sac_source(
            "double f(double x) { return( x + 1.0 ); }", pipeline=False
        )
        assert engine.codes() == []


class TestJitMatrixLint:
    def test_jit_matrix_lints_clean(self, capsys):
        """Every registered specialization lowers, verifies and proves —
        the ahead-of-time version of the first-engine-use gate."""
        assert main(["--jit"]) == 0
        out = capsys.readouterr().out
        assert "jit kernel matrix: 232 spec(s) verified, 0 finding(s)" in out
        assert "jit stage plans: 232 plan(s) proved" in out and "barriers), 0 finding(s)" in out
        assert "jit total: 232 specs + 232 stage plans + 4 standalone IRs" in out
        assert "0 error(s)" in out

    def test_stage_plan_lint_demands_every_phase_barrier(self):
        """Seeded bug: a plan without the convert -> sweep0 barrier lets a
        sweep strip read primitive rows a neighbouring strip's conversion
        is still writing.  The prover must say so (DEP003), per phase
        boundary: every barrier of a 2-D plan is load-bearing.  (In 1-D
        the sweep's strips write exactly the ``k`` rows the same strips'
        combine reads, so that one boundary proves out without.)"""
        from repro.analysis.cli import lint_stage_plan, matrix_specs
        from repro.analysis.diag import DiagnosticEngine
        from repro.jit import plan

        for spec in (matrix_specs()[0], matrix_specs()[-1]):  # 1-D pc, 2-D weno3
            names = [name for name, _ in plan.phase_access_maps(spec)]
            assert names[:2] == ["convert", "sweep0"] and names[-1] == "combine"
            clean = DiagnosticEngine()
            lint_stage_plan(spec, clean)
            assert clean.codes() == []
            for dropped in plan.barriers(names):
                engine = DiagnosticEngine()
                lint_stage_plan(spec, engine, barriers=plan.barriers(names) - {dropped})
                if dropped == ("sweep0", "combine"):
                    assert spec.ndim == 1 and engine.codes() == []
                    continue
                assert "DEP003" in engine.codes(), dropped
                assert all(code in ("DEP002", "DEP003") for code in engine.codes())
                first = next(d for d in engine if d.code == "DEP003")
                assert f"{dropped[1]} strip" in first.message and f"{dropped[0]} strip" in first.message
                assert "no barrier" in first.message

    def test_jit_matrix_covers_every_registered_method(self):
        from repro.analysis.cli import lint_jit_kernels
        from repro.analysis.diag import DiagnosticEngine
        from repro.euler.riemann import RIEMANN_SOLVERS

        engine = DiagnosticEngine()
        verified = lint_jit_kernels(engine)
        assert engine.codes() == []
        # 4 riemann x (pc + 4*tvd2 + 4*tvd3 + weno3) x 2 ndim under
        # primitive and conservative variables, the 9 wide schemes again
        # under characteristic (pc there is the primitive kernel)
        assert verified == len(RIEMANN_SOLVERS) * (10 * 2 + 9) * 2

    def test_jit_matrix_catches_seeded_footprint_bug(self, monkeypatch):
        """Widen every sweep kernel's stencil by one row past the
        declared ghost width: the matrix lint must light up with DEP001
        instead of passing silently."""
        from repro.analysis import deps
        from repro.analysis.cli import lint_jit_kernels
        from repro.analysis.diag import DiagnosticEngine
        from repro.jit import codegen

        real_map = codegen.sweep_access_map

        def widened(spec, flux_ir):
            amap = real_map(spec, flux_ir)
            j = deps.LinExpr.var("j")
            overread = deps.Access(
                "padded",
                "read",
                j + 2 * spec.ghost_cells,
                "j",
                deps.LinExpr.of(0),
                deps.LinExpr.var("cells") + 1,
            )
            return deps.AccessMap(
                amap.kernel,
                amap.accesses + (overread,),
                amap.extents,
                amap.opcodes,
                amap.strip_bases,
            )

        monkeypatch.setattr(codegen, "sweep_access_map", widened)
        engine = DiagnosticEngine()
        lint_jit_kernels(engine)
        assert "DEP001" in engine.codes()

    def test_every_spec_reports_vectorised_loops(self, tmp_path):
        """"Vectorised" as an observed fact over the whole matrix: on
        gcc/x86-64 every spec's sweep and dt loop report a width; the
        same verdicts are the ``jit-kernel`` lines of the JSONL."""
        import platform

        import repro.jit
        from repro.jit import compile as jit_compile

        report = tmp_path / "lint-jit.jsonl"
        assert main(["--jit", "--json", "--output", str(report)]) == 0
        lines = [json.loads(line) for line in report.read_text().splitlines()]
        kernels = [line for line in lines if line["kind"] == "jit-kernel"]
        assert len(kernels) == 232 and len({k["spec"] for k in kernels}) == 232
        assert read_diagnostics_jsonl(report) == []  # mixed kinds still parse
        if not repro.jit.available():
            assert all(k["vector"] == "not-observed" for k in kernels)
            assert all(k["sweep"] is None and k["dt"] is None for k in kernels)
            pytest.skip("no C compiler: nothing was built, nothing observed")
        chain = jit_compile.toolchain()
        if chain.family is None:
            assert all(k["vector"] == "not-observed" for k in kernels)
            assert all(k["sweep"] is None and k["dt"] is None for k in kernels)
            pytest.skip(f"{chain.version!r} has no vectorisation report to read")
        if chain.family != "gcc" or platform.machine() != "x86_64":
            assert all(isinstance(k["sweep"], int) and isinstance(k["dt"], int) for k in kernels)
            pytest.skip(
                f"{chain.family} on {platform.machine()}: observed"
                " (lint exit 0: none scalar), widths pinned for gcc/x86-64 only"
            )
        assert chain.flags == jit_compile.CFLAGS  # not a compiler on the fallback
        for kernel in kernels:
            assert kernel["vector"] == "vectorised", kernel
            assert kernel["sweep"] >= 16 and kernel["dt"] >= 16, kernel
            # cell rows exactly where the stencil is two cells, in lanes too
            if "/pc/" in kernel["spec"]:
                assert kernel["cell"] >= 16, kernel
            else:
                assert "cell" not in kernel, kernel

    def test_scalar_kernel_fails_the_lint(self, monkeypatch, capsys):
        """Where the compiler reports and a loop is not in the report,
        the matrix lint fails with JIT-VEC001 naming spec and loop."""
        import repro.jit
        from repro.analysis.cli import lint_jit_kernels
        from repro.analysis.diag import DiagnosticEngine
        from repro.jit import compile as jit_compile

        class Scalar:
            vector = {"sweep": 64, "dt": 0}

        monkeypatch.setattr(repro.jit, "available", lambda: True)
        monkeypatch.setattr(jit_compile, "load_kernel", lambda source, ndim: Scalar())
        engine, records = DiagnosticEngine(), []
        assert lint_jit_kernels(engine, records) == 232
        assert engine.codes() == ["JIT-VEC001"] * 232 and engine.has_errors()
        assert "reports no vectorised dt loop" in engine.diagnostics[0].message
        assert {record["vector"] for record in records} == {"scalar"}
        assert main(["--jit"]) == 1
        assert "0 vectorised, 232 scalar, 0 not-observed" in capsys.readouterr().out

    def test_a_scalar_cell_row_loop_fails_the_lint(self, monkeypatch, tmp_path):
        """A kernel whose cell-row loop the compiler leaves scalar (here a
        volatile access in its body) fails the lint with JIT-VEC001
        naming that loop, though its sweep and dt loops vectorise."""
        import repro.jit
        from repro.analysis.cli import _observe_vector
        from repro.analysis.diag import DiagnosticEngine
        from repro.euler.solver import SolverConfig
        from repro.jit import codegen
        from repro.jit import compile as jit_compile
        from repro.jit.kernels import kernel_irs, spec_from_config

        if not repro.jit.available() or jit_compile.toolchain().family is None:
            pytest.skip("no compiler vectorisation report to read")
        monkeypatch.setenv(jit_compile.CACHE_ENV, str(tmp_path / "cache"))
        real = codegen.generate_source
        sink = codegen.CELL_ROW_LOOP + "\n volatile double sink = 0.0; (void)sink;"
        monkeypatch.setattr(
            codegen,
            "generate_source",
            lambda *args: real(*args).replace(codegen.CELL_ROW_LOOP, sink),
        )
        spec = spec_from_config(SolverConfig(reconstruction="pc"), 2)
        engine = DiagnosticEngine()
        record = _observe_vector(spec, *kernel_irs(spec), engine, build=True)
        assert record["vector"] == "scalar" and record["cell"] == 0
        assert record["sweep"] and record["dt"]
        assert engine.codes() == ["JIT-VEC001"]
        assert "reports no vectorised cell loop" in engine.diagnostics[0].message

    def test_standalone_numpy_kernels_are_linted(self, capsys, monkeypatch):
        """``--jit`` also verifies the standalone IRs that remain beside
        the 232 fused specs (the primitive conversion per field count and
        the two flux differences): clean today, and a broken emitter is
        named ahead of time."""
        from repro.analysis.cli import lint_numpy_kernels
        from repro.analysis.diag import DiagnosticEngine
        from repro.jit import kernels

        assert main(["--jit"]) == 0
        out = capsys.readouterr().out
        count = len(kernels.standalone_kernels())
        assert count == 4
        assert "jit kernel matrix: 232 spec(s) verified, 0 finding(s)" in out
        assert "numpy kernel programs: 4 standalone IR(s) verified, 0 finding(s)" in out

        def broken(b, fields, gm1):
            return [b.add(fields[0], "v_undefined")] * len(fields)

        monkeypatch.setattr(kernels.state, "emit_primitive_from_conservative", broken)
        engine = DiagnosticEngine()
        assert lint_numpy_kernels(engine) == count
        assert set(engine.codes()) == {"JIT-IR001"}
        assert any("convert_primitive_3 [numpy]" in d.format() for d in engine)
