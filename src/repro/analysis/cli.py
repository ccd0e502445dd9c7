"""``python -m repro.lint`` — run every static checker in one pass.

With no arguments the built-in programs are linted: the three bundled
SaC sources (the Section 4 Euler kernels among them, with the paper's
``-DDIM=2`` define set) and the two Fortran solver sources.  Paths to
``.sac`` / ``.f90`` files may be given instead.

Per SaC target: parse, IR-verify + typecheck the source module
(:mod:`repro.analysis.sac_verify`), check with-loop disjointness and
bounds (:mod:`repro.analysis.wl_check`), then compile at ``-O3`` with
``verify_ir=True`` so the verifier also runs between every
optimisation pass.  Per Fortran target: parse, auto-parallelise, and
cross-check the annotations against the independent race checker
(:mod:`repro.analysis.f90_races`).

``--jit`` lints the *compiled-kernel matrix* instead of (or besides)
source files: every registered riemann × reconstruction × limiter ×
variables × ndim specialization is lowered to kernel IR, verified
(:mod:`repro.analysis.jit_verify`), and its access map run through the
dependence prover (:mod:`repro.analysis.deps` — footprint vs. ghost
width, strip write-disjointness) ahead of time, so a specialization
that could not be compiled or threaded is caught in CI rather than at
first engine use.  Where a C compiler is available each specialization
is also *built* (through the ordinary cache) and what the compiler
reports for its two point loops is recorded per spec as ``vectorised``,
``scalar`` or ``not-observed`` (``"kind": "jit-kernel"`` lines in the
JSONL); ``scalar`` — a compiler that reports, and reports nothing for a
loop — is error ``JIT-VEC001``.  Those 232 specs are the NumPy path as
well — the engine interprets the same IR pair the C is generated from —
so nothing is checked for one executor only.  Per spec ``--jit`` also
lints its *stage plan* (:mod:`repro.jit.plan`): the combine, convert and
fill bodies the stage entry point is generated from are verified, and a
representative plan — ragged three-strip layouts, every fill kind —
goes through :func:`repro.analysis.deps.prove_phases`: every phase's
access map in bounds and strip-independent, every cross-phase
dependence behind one of the plan's barriers.  Last it builds, verifies
and schedules the four *standalone* IRs (the primitive conversion per
field count and the two flux differences,
:func:`repro.jit.numpy_eval.numpy_program`): 232 specs + 232 stage
plans + 4 standalone IRs.

Output is a human-readable report, or JSONL (``--json``, one
``"kind": "diagnostic"`` object per line — the
:mod:`repro.obs.export` schema) to stdout or ``--output``.  Exit
status is the number of error-severity findings, capped at 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.diag import DiagnosticEngine
from repro.analysis.f90_races import cross_check_autopar
from repro.analysis.sac_verify import verify_module
from repro.analysis.wl_check import check_with_loops
from repro.errors import AnalysisError, ReproError

__all__ = [
    "main",
    "lint_sac_source",
    "lint_f90_source",
    "lint_jit_kernels",
    "lint_stage_plan",
    "lint_numpy_kernels",
    "builtin_targets",
]

#: defines for the bundled kernels, per tests and the paper's flags
_KERNELS_DEFINES: Dict[str, object] = {
    "DIM": 2,
    "DELTA": np.array([1.0, 1.0]),
    "CFL": 0.5,
}


def builtin_targets() -> List[Tuple[str, str, Dict[str, object]]]:
    """(name, kind, defines) for every bundled program."""
    return [
        ("kernels.sac", "sac", dict(_KERNELS_DEFINES)),
        ("euler1d.sac", "sac", {}),
        ("euler2d.sac", "sac", {}),
        ("euler2d.f90", "f90", {}),
        ("getdt.f90", "f90", {}),
    ]


def lint_sac_source(
    source: str,
    defines: Optional[Dict[str, object]] = None,
    *,
    engine: Optional[DiagnosticEngine] = None,
    pipeline: bool = True,
) -> DiagnosticEngine:
    """All SaC checkers over one source text."""
    from repro.sac import api
    from repro.sac.parser import parse_module

    engine = engine if engine is not None else DiagnosticEngine()
    module = parse_module(source)
    verify_module(module, defines, engine=engine)
    check_with_loops(module, defines, engine=engine)
    if pipeline and not engine.has_errors():
        options = api.CompilerOptions(defines=dict(defines or {}), verify_ir=True)
        try:
            api.compile_source(source, options)
        except AnalysisError as error:
            engine.extend(error.diagnostics)
    return engine


def lint_f90_source(
    source: str,
    *,
    engine: Optional[DiagnosticEngine] = None,
) -> DiagnosticEngine:
    """Autopar cross-check over one Fortran source text."""
    from repro.f90.autopar import autoparallelize
    from repro.f90.parser import parse_program

    engine = engine if engine is not None else DiagnosticEngine()
    unit = parse_program(source)
    autoparallelize(unit)
    cross_check_autopar(unit, engine=engine)
    return engine


def _observe_vector(
    spec, flux_ir, dt_ir, engine: DiagnosticEngine, build: bool
) -> Dict[str, object]:
    """Build ``spec``'s kernel and classify what the compiler reported
    for its sweep and dt loops (the ``jit-kernel`` JSONL record).  A
    spec with findings is not built (``build=False``): not observed."""
    import repro.jit
    from repro.jit import codegen
    from repro.jit import compile as jit_compile

    label = spec.label()
    vector: Dict[str, Optional[int]] = {"sweep": None, "dt": None}
    if build and repro.jit.available():
        try:
            source = codegen.generate_source(spec, flux_ir, dt_ir)
            vector = jit_compile.load_kernel(source, spec.ndim).vector
        except jit_compile.CompileError as error:
            engine.warning(
                "JIT-VEC002",
                f"{label}: kernel did not build, vectorisation not observed: {error}",
                source="repro.lint",
                where=label,
            )
    scalar = sorted(loop for loop, width in vector.items() if width == 0)
    if scalar:
        engine.error(
            "JIT-VEC001",
            f"{label}: the compiler reports no vectorised {' / '.join(scalar)} loop",
            source="repro.lint",
            where=label,
        )
        verdict = "scalar"
    elif None in vector.values():
        verdict = "not-observed"
    else:
        verdict = "vectorised"
    return {"kind": "jit-kernel", "spec": label, "vector": verdict, **vector}


def matrix_specs() -> List:
    """Every distinct :class:`~repro.jit.kernels.KernelSpec` the method
    menu reaches (limiter choices collapse for unlimited schemes)."""
    import itertools

    from repro.euler.reconstruction import LIMITERS
    from repro.euler.riemann import RIEMANN_SOLVERS
    from repro.euler.solver import SolverConfig
    from repro.jit.kernels import spec_from_config

    reconstructions = ("pc", "tvd2", "tvd3", "weno3")
    variables = ("primitive", "conservative", "characteristic")
    limited = ("tvd2", "tvd3")

    specs = {}  # insertion-ordered set
    for riemann, reconstruction, variant, ndim in itertools.product(
        RIEMANN_SOLVERS, reconstructions, variables, (1, 2)
    ):
        limiters = tuple(LIMITERS) if reconstruction in limited else ("minmod",)
        for limiter in limiters:
            config = SolverConfig(
                riemann=riemann,
                reconstruction=reconstruction,
                limiter=limiter,
                variables=variant,
            )
            specs[spec_from_config(config, ndim)] = None
    return list(specs)


def lint_jit_kernels(
    engine: Optional[DiagnosticEngine] = None,
    records: Optional[List[Dict[str, object]]] = None,
) -> int:
    """Lower + verify + dependence-prove the whole KernelSpec matrix.

    Every registered riemann × reconstruction × limiter × variables ×
    ndim combination is resolved to a :class:`~repro.jit.kernels
    .KernelSpec` (deduplicated — e.g. limiter choices collapse for
    unlimited schemes), its flux/dt IR built and structurally verified,
    and its access maps run through :func:`repro.analysis.deps
    .prove_strips` (sweep, against a representative two-strip plan and
    the declared ghost width) and :func:`~repro.analysis.deps
    .prove_footprint` (dt).  Each spec that came through clean is then
    built and its vector report classified (:func:`_observe_vector`;
    one record per spec appended to ``records`` when given).  Findings
    land in ``engine``; returns the number of distinct specs checked.
    """
    from repro.analysis import deps
    from repro.analysis.jit_verify import verify_kernel
    from repro.jit import codegen
    from repro.jit.kernels import build_dt_ir, build_flux_ir

    engine = engine if engine is not None else DiagnosticEngine()
    specs = matrix_specs()
    records = records if records is not None else []
    for spec in specs:
        label = spec.label()
        errors_before = len(engine.errors)
        # verify_kernel raises as soon as *any* error is on its engine,
        # so each spec gets a private one; findings are merged after.
        local = DiagnosticEngine()
        try:
            flux_ir = build_flux_ir(spec)
            dt_ir = build_dt_ir(spec)
            verify_kernel(flux_ir, label, engine=local)
            verify_kernel(dt_ir, label, engine=local)
        except AnalysisError:
            engine.extend(local.diagnostics)
            records.append(_observe_vector(spec, None, None, engine, build=False))
            continue
        engine.extend(local.diagnostics)
        # Representative two-strip plan: enough to exercise every
        # cross-strip check (the proof is layout-generic in `cells`).
        amap = codegen.sweep_access_map(spec, flux_ir)
        proof = deps.prove_strips(
            amap, ((0, 4), (4, 8)), spec.ghost_cells, where=label
        )
        engine.extend(proof.diagnostics)
        deps.prove_footprint(
            codegen.dt_access_map(spec, dt_ir), engine=engine, where=label
        )
        clean = len(engine.errors) == errors_before
        records.append(_observe_vector(spec, flux_ir, dt_ir, engine, build=clean))
    return len(specs)


def lint_stage_plan(spec, engine: DiagnosticEngine, barriers=None) -> None:
    """Lint the stage plan of ``spec``: verify the pointwise bodies the
    stage entry point carries beside the spec's pair (the conversion,
    every Runge-Kutta combine), build a representative plan — a ragged
    9 x 7 member, two members, three strips per sweep, a piecewise edge
    of all three fill kinds — and prove its phases
    (:func:`repro.analysis.deps.prove_phases`) under ``barriers``
    (default: the plan's own, :func:`repro.jit.plan.barriers`).
    Findings land in ``engine``."""
    from repro.analysis import deps
    from repro.analysis.jit_verify import verify_kernel
    from repro.euler import boundary, rk, tiling
    from repro.jit import plan as stage_plan
    from repro.jit.kernels import build_combine_ir, build_standalone_ir

    label = f"{spec.label()} stage"
    local = DiagnosticEngine()
    try:
        verify_kernel(build_standalone_ir("convert", "primitive", spec.nfields), label, engine=local)
        for kind in rk.COMBINES:
            verify_kernel(build_combine_ir(kind), label, engine=local)
    except AnalysisError:
        engine.extend(local.diagnostics)
        return
    engine.extend(local.diagnostics)
    member_shape = ((9, 7) if spec.ndim == 2 else (9,)) + (spec.nfields,)
    state = (1.0,) + (0.0,) * spec.ndim + (1.0,)
    if spec.ndim == 2:
        edge = boundary.EdgeSpec()
        edge.add(0, 2, boundary.SupersonicInflow(state))
        edge.add(2, 4, boundary.ReflectiveWall())
        edge.add(4, None, boundary.Transmissive())
        bset = boundary.BoundarySet2D(edge, edge, edge, edge)
    else:
        bset = boundary.BoundarySet1D(
            boundary.ReflectiveWall(), boundary.SupersonicInflow(state)
        )
    fills, declined = stage_plan.fill_tables(spec, member_shape, [bset, bset])
    if declined is not None:
        engine.error(
            "LINT-FAIL",
            f"{label}: the compiled fill declines a plan of the three shipped"
            f" boundary kinds: {declined}",
            source="repro.lint",
            where=label,
        )
    plans = [
        tiling.plan_tiles(extent, 1, -(-extent // 3)) for extent in member_shape[:-1]
    ]
    plan = stage_plan.build_stage_plan(
        spec, member_shape, 2, fills, declined, (0.1,) * spec.ndim, plans
    )
    maps = stage_plan.phase_access_maps(spec)
    names = [name for name, _ in maps]
    assert names == [phase.name for phase in plan.phases]
    proof = deps.prove_phases(
        [(name, amap, phase.layout) for (name, amap), phase in zip(maps, plan.phases)],
        stage_plan.barriers(names) if barriers is None else barriers,
        spec.ghost_cells,
        where=label,
    )
    engine.extend(proof.diagnostics)


def lint_numpy_kernels(engine: DiagnosticEngine) -> int:
    """Build, verify and schedule every standalone kernel IR — the
    conversion the engine runs outside a fused program and the two flux
    differences.  Findings land in ``engine``; returns the number of
    kernels checked."""
    from repro.jit.kernels import standalone_kernels
    from repro.jit.numpy_eval import numpy_program

    kernels = standalone_kernels()
    for kernel in kernels:
        try:
            numpy_program.__wrapped__(*kernel)  # past the per-process cache
        except AnalysisError as error:
            engine.extend(error.diagnostics)
    return len(kernels)


def _lint_target(
    name: str,
    kind: str,
    defines: Dict[str, object],
    engine: DiagnosticEngine,
    pipeline: bool,
) -> None:
    if kind == "sac":
        from repro.sac.api import load_program_source

        lint_sac_source(
            load_program_source(name), defines, engine=engine, pipeline=pipeline
        )
    else:
        from repro.f90.api import load_program_source

        lint_f90_source(load_program_source(name), engine=engine)


def _classify(path: str) -> str:
    if path.endswith(".sac"):
        return "sac"
    if path.endswith((".f90", ".f", ".F90")):
        return "f90"
    raise SystemExit(f"repro.lint: cannot classify {path!r} (.sac or .f90)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Static analysis over SaC and Fortran-90 sources "
        "(IR verification, with-loop disjointness/bounds, autopar race "
        "cross-check).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=".sac / .f90 files; default: the bundled Euler programs",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit JSONL diagnostics (repro.obs.export schema)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the report/JSONL here instead of stdout",
    )
    parser.add_argument(
        "--define",
        "-D",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="compile-time define for .sac targets (int or float)",
    )
    parser.add_argument(
        "--no-pipeline",
        action="store_true",
        help="skip the -O3 verify_ir compile of .sac targets",
    )
    parser.add_argument(
        "--jit",
        action="store_true",
        help="lower, verify and dependence-prove the full compiled-kernel "
        "specialization matrix (with no paths, lints only the matrix)",
    )
    arguments = parser.parse_args(argv)

    defines: Dict[str, object] = {}
    for item in arguments.define:
        name, _, text = item.partition("=")
        if not _:
            raise SystemExit(f"repro.lint: bad define {item!r} (want NAME=VALUE)")
        try:
            defines[name] = int(text)
        except ValueError:
            try:
                defines[name] = float(text)
            except ValueError:
                raise SystemExit(
                    f"repro.lint: define {item!r} is neither int nor float"
                ) from None

    engine = DiagnosticEngine()
    targets: List[Tuple[str, str, Dict[str, object]]]
    if arguments.paths:
        targets = [(path, _classify(path), dict(defines)) for path in arguments.paths]
    elif arguments.jit:
        targets = []
    else:
        targets = builtin_targets()

    checked: List[str] = []
    for name, kind, target_defines in targets:
        before = len(engine)
        try:
            _lint_target(
                name, kind, target_defines, engine, pipeline=not arguments.no_pipeline
            )
        except ReproError as error:
            engine.error(
                "LINT-FAIL",
                f"{name}: {type(error).__name__}: {error}",
                source="repro.lint",
                where=name,
            )
        checked.append(f"{name}: {len(engine) - before} finding(s)")

    kernel_records: List[Dict[str, object]] = []
    if arguments.jit:
        before = len(engine)
        try:
            verified = lint_jit_kernels(engine, kernel_records)
            matrix_findings = len(engine) - before
            for spec in matrix_specs():
                lint_stage_plan(spec, engine)
            stage_findings = len(engine) - before - matrix_findings
            standalone = lint_numpy_kernels(engine)
        except ReproError as error:
            engine.error(
                "LINT-FAIL",
                f"jit kernel matrix: {type(error).__name__}: {error}",
                source="repro.lint",
                where="jit-matrix",
            )
        else:
            checked.append(
                f"jit kernel matrix: {verified} spec(s) verified, "
                f"{matrix_findings} finding(s)"
            )
            verdicts = [record["vector"] for record in kernel_records]
            widths = sorted(
                {
                    f"{loop} {record[loop]} B"
                    for record in kernel_records
                    for loop in ("sweep", "dt")
                    if record[loop]
                }
            )
            checked.append(
                "jit vector build: "
                + ", ".join(
                    f"{verdicts.count(verdict)} {verdict}"
                    for verdict in ("vectorised", "scalar", "not-observed")
                )
                + (f" ({', '.join(widths)})" if widths else "")
            )
            checked.append(
                f"jit stage plans: {verified} plan(s) proved (bodies, fills,"
                f" phases, barriers), {stage_findings} finding(s)"
            )
            checked.append(
                f"numpy kernel programs: {standalone} standalone IR(s) verified, "
                f"{len(engine) - before - matrix_findings - stage_findings} finding(s)"
            )
            checked.append(
                f"jit total: {verified} specs + {verified} stage plans"
                f" + {standalone} standalone IRs"
            )

    stream = open(arguments.output, "w") if arguments.output else sys.stdout
    try:
        if arguments.json:
            payloads = [diagnostic.to_dict() for diagnostic in engine]
            for payload in payloads + kernel_records:
                stream.write(json.dumps(payload))
                stream.write("\n")
        else:
            for line in checked:
                stream.write(f"checked {line}\n")
            stream.write(engine.format())
            stream.write("\n")
    finally:
        if arguments.output:
            stream.close()
    return 1 if engine.has_errors() else 0
