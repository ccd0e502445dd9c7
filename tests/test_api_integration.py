"""Cross-cutting API and integration tests: error hierarchy, the SaC
compile API surface and example-level smoke tests."""

import numpy as np
import pytest

from repro import errors
from repro.sac import CompilerOptions, SacProgram, compile_source


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for name in (
            "PhysicsError",
            "ConfigurationError",
            "SacSyntaxError",
            "SacTypeError",
            "SacRuntimeError",
            "FortranSyntaxError",
            "FortranSemanticError",
            "FortranRuntimeError",
        ):
            error_type = getattr(errors, name)
            assert issubclass(error_type, errors.ReproError)

    def test_sac_errors_under_sac_base(self):
        assert issubclass(errors.SacTypeError, errors.SacError)

    def test_syntax_error_carries_position(self):
        error = errors.SacSyntaxError("bad", line=3, column=7)
        assert "3:7" in str(error)
        assert error.line == 3

    def test_fortran_syntax_error_line(self):
        error = errors.FortranSyntaxError("bad", line=12)
        assert "line 12" in str(error)


class TestSacApi:
    SOURCE = """
    module api;
    double twice(double[.] a) { return( sum(a * 2.0) ); }
    """

    def test_compile_and_run(self):
        program = compile_source(self.SOURCE)
        assert isinstance(program, SacProgram)
        assert program.run("twice", np.array([1.0, 2.0])) == 6.0

    def test_reference_interpreter_agrees(self):
        program = compile_source(self.SOURCE)
        arg = np.array([1.0, 2.5])
        assert program.run("twice", arg) == program.run_reference("twice", arg)

    def test_run_checks_argument_types(self):
        program = compile_source(self.SOURCE)
        with pytest.raises(errors.SacTypeError):
            program.run("twice", np.array([[1.0]]))  # rank 2, declared [.]

    def test_typecheck_can_be_disabled(self):
        program = compile_source(
            self.SOURCE, CompilerOptions(typecheck=False)
        )
        assert program.run("twice", np.array([3.0])) == 6.0
        assert program.specializations == {}

    def test_compile_time_type_error_reported(self):
        bad = "double f(double x) { return( y ); }"
        with pytest.raises(errors.SacTypeError):
            compile_source(bad)

    def test_function_names_listed(self):
        program = compile_source(self.SOURCE)
        assert program.function_names() == ["twice"]

    def test_trace_reset(self):
        program = compile_source(self.SOURCE, CompilerOptions(trace=True))
        program.run("twice", np.ones(100))
        assert len(program.trace) > 0
        program.reset_trace()
        assert len(program.trace) == 0

    def test_local_shadowing_global_is_rejected(self):
        """Inlining relies on module constants never being shadowed."""
        source = """
        double GAM = 1.4;
        double f(double x) { GAM = x; return( GAM ); }
        """
        with pytest.raises(errors.SacTypeError, match="shadow"):
            compile_source(source)


class TestExamplesSmoke:
    def test_quickstart_functions_run(self, capsys):
        import examples.quickstart as quickstart

        quickstart.sac_quickstart()
        quickstart.fortran_quickstart()
        captured = capsys.readouterr().out
        assert "fastestWave" in captured
        assert "GetDT" in captured

    def test_figures_module_importable(self):
        from repro import figures

        assert callable(figures.figure1_sod)
        assert callable(figures.figure4_scaling)
