"""One kernel text: the ``emit_*`` IR definitions against their references.

The engine runs one folded program per spec, interpreted by
:class:`repro.jit.numpy_eval.NumpyProgram` or compiled to C.  These
tests take the fold apart again: each ``emit_*`` definition is built
into a program of its own (:func:`standalone_ir`, test-local) and held,
kernel by kernel, to the allocating function beside it — the
independent reference — at 0.0; the engine's folded NumPy face fluxes
are held to the allocating composition over the whole method menu; and
the engine's NumPy sweep and dt pass are held to the compiled C of the
same IR — all on drawn states the whole-engine tests never see:
near-vacuum, strong jumps,
exact zeros in every guarded denominator (``s_right - s_left``,
``s_wave - s_star``, ``a + b`` of van Leer, flat data under
``WENO_EPSILON``), a Roe sound speed at its clamp, thin cells whose
characteristic reconstruction comes back unphysical on one side of a
face only, ragged shapes down to one face, non-contiguous field views
and one NaN or infinite cell.  The compiled C is the *vector build*, so a
second pair of properties goes lane by lane: cross extents below one
vector, exact multiples and body + remainder, chunk boundaries of the dt
pass, NaN / +-inf / +-0 / denormal / rho = 0 / p < 0 on every lane index
mod 8 — vector build == ``REFERENCE_CFLAGS`` build of the same source ==
``numpy_eval``, three ways.  Three unit tests pin the evaluator's own rules:
slot liveness over the fused programs, thread safety of a shared program
on separate workspaces, and the strip planner's row size against the
bytes a strip actually holds.

Example counts come from the hypothesis profile (``tests/conftest.py``):
``--hypothesis-profile=ci`` runs ten times the default.
"""

import inspect
import sys
import threading
from collections import namedtuple
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.jit
from repro.analysis.jit_verify import verify_kernel
from repro.errors import PhysicsError
from repro.euler import state, tiling, timestep
from repro.euler.boundary import all_transmissive_2d, transmissive_1d
from repro.euler.engine import StepEngine
from repro.euler.reconstruction import (
    characteristic,
    get_scheme,
    get_scheme_emitter,
    reconstruct_characteristic,
    reconstruct_component,
    schemes,
    stencil_views,
)
from repro.euler.riemann import RIEMANN_SOLVERS, get_riemann_emitter
from repro.euler.solver import SolverConfig, _SweepKernel
from repro.euler.timestep import get_dt, max_eigenvalue
from repro.euler.workspace import Workspace
from repro.jit import codegen
from repro.jit import compile as jit_compile
from repro.jit.ir import IRBuilder
from repro.jit.kernels import SCALAR_PARAMS, build_dt_ir, build_flux_ir, spec_from_config
from repro.jit.numpy_eval import NumpyProgram, field_views, kernel_programs, numpy_program

GAMMA = 1.4
LIMITERS = ("minmod", "superbee", "vanleer", "mc")
SCHEMES = (
    [("pc", "minmod"), ("tvd3", "minmod"), ("weno3", "minmod")]
    + [("tvd2", limiter) for limiter in LIMITERS]
)
#: Composed specs whose compiled kernels the NumPy programs are held to:
#: every solver in 1-D and 2-D, every scheme/limiter once, one
#: conservative-variables chain, and the characteristic projection under
#: every wide scheme in 2-D and every solver in 1-D.
COMPOSED = (
    [(riemann, "pc", "minmod", "primitive", ndim) for riemann in sorted(RIEMANN_SOLVERS) for ndim in (1, 2)]
    + [("hllc", scheme, limiter, "primitive", 2) for scheme, limiter in SCHEMES[1:]]
    + [("roe", "tvd2", "minmod", "conservative", 1)]
    + [("hllc", scheme, limiter, "characteristic", 2) for scheme, limiter in SCHEMES[1:]]
    + [(riemann, "weno3", "minmod", "characteristic", 1) for riemann in sorted(RIEMANN_SOLVERS)]
)

needs_cc = pytest.mark.skipif(not repro.jit.available(), reason="no C compiler on PATH")

#: Shared on purpose: every example meets scratch left dirty by the last.
WORK = Workspace()

Case = namedtuple("Case", "seed shape layout features")


def cases(*features):
    """Leading shape (down to one cell), memory layout, and which nasty
    features to plant; the values themselves come from ``seed``."""
    shapes = st.one_of(
        st.tuples(st.integers(1, 9)),
        st.tuples(st.integers(1, 4), st.integers(1, 6)),
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4)),
    )
    return st.builds(
        Case,
        seed=st.integers(0, 2**32 - 1),
        shape=shapes,
        layout=st.sampled_from(("contiguous", "strided", "fieldmajor")),
        features=st.sets(st.sampled_from(features)),
    )


def carve(shape, nfields, layout):
    """A NaN-filled ``shape + (nfields,)`` array in the drawn layout."""
    if layout == "strided":  # every other cell of a wider block
        block = np.full(shape[:-1] + (2 * shape[-1] + 1, nfields), np.nan)
        return block[..., 1::2, :]
    if layout == "fieldmajor":  # each field plane contiguous
        return np.moveaxis(np.full((nfields,) + shape, np.nan), 0, -1)
    return np.full(shape + (nfields,), np.nan)


def primitive(rng, shape, nfields, layout):
    p = carve(shape, nfields, layout)
    p[..., 0] = rng.uniform(0.1, 3.0, shape)
    p[..., 1:-1] = rng.normal(0.0, 1.0, shape + (nfields - 2,))
    p[..., -1] = rng.uniform(0.1, 3.0, shape)
    return p


def plant(rng, features, *arrays):
    """Plant each drawn feature at one cell, the same cell in every array."""
    shape = arrays[0].shape[:-1]

    def cell():
        return tuple(int(rng.integers(0, extent)) for extent in shape)

    if "flat" in features:  # zero differences: WENO under its epsilon
        for array in arrays:
            array[...] = array[cell()].copy()
    if "peak" in features and shape[0] >= 3:  # a == -b exactly (van Leer's a + b)
        row = int(rng.integers(1, shape[0] - 1))
        level = float(rng.integers(-3, 4))
        for array in arrays:
            array[row - 1 : row + 2] = level
            array[row] = level + 1.0
    if "vacuum" in features:
        at = cell()
        for array in arrays:
            array[at + (0,)] = array[at + (-1,)] = 1e-13
    if "thin" in features:  # physical, but overshot by its neighbours' slopes
        at = cell()
        arrays[0][at + (0,)] *= 1e-3
        arrays[0][at + (-1,)] *= 1e-4
    if "cold" in features:  # p == 0 on both sides of a face: H - q2/2 at the 1e-14 clamp
        row = int(rng.integers(0, shape[0]))
        for array in arrays:
            array[row : row + 2, ..., -1] = 0.0
    if "jump" in features:
        at = cell()
        arrays[-1][at + (0,)] *= 1e3
        arrays[-1][at + (-1,)] *= 1e6
    if "still" in features:  # c == 0 and u == 0: every guarded denominator is 0
        at = cell()
        for array in arrays:
            array[at + (slice(1, None),)] = 0.0
    for feature, value in (("nan", np.nan), ("inf", np.inf)):
        if feature in features:
            arrays[0][cell() + (int(rng.integers(0, arrays[0].shape[-1])),)] = value


def assert_same_bits(actual, expected):
    """Equal at 0.0: NaN where NaN, else the same 64 bits (signed zeros too)."""
    actual, expected = np.ascontiguousarray(actual), np.ascontiguousarray(expected)
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert np.array_equal(actual[~nan].view(np.uint64), expected[~nan].view(np.uint64))


def outcome(call):
    """A call's value, or what its :class:`PhysicsError` says."""
    try:
        with np.errstate(all="ignore"):
            return "value", call()
    except PhysicsError as error:
        return "error", error.cells, error.batch_index, str(error)


# -- one emitter, one program: the fold taken apart ----------------------


def standalone_ir(kind, *key):
    """The IR of one ``emit_*`` definition alone; outputs are ``out0..``
    in the emitter's order.

    ``riemann``: primitive ``l*``/``r*`` fields and ``gamma`` in, the
    flux out.  ``scheme``: one field's ``2 * ghost_cells`` stencil cells
    in, (left, right) out.  ``conservative``: primitive ``q*`` fields and
    ``gamma`` in, the conservative fields out.  ``eigenvalues``:
    ``prim*`` fields, ``gamma`` and the spacings ``sp*`` in, the GetDT
    integrand out.  ``characteristic``: the four primitive stencil cells
    ``c{k}_*`` and ``gamma`` in, the primitive left then right face
    states out — projection, scheme and back-projection with its
    per-side fallback.
    """
    b = IRBuilder("_".join(str(part) for part in (kind,) + key))

    def params(prefix, count):
        return [b.param(f"{prefix}{i}") for i in range(count)]

    if kind == "scheme":
        name, limiter = key
        cells = params("c", 2 * get_scheme(name, limiter).ghost_cells)
        results = get_scheme_emitter(name, limiter)(b, cells)
    elif kind == "eigenvalues":
        (ndim,) = key
        prim, gamma = params("prim", ndim + 2), b.param("gamma")
        results = [timestep.emit_eigenvalue_sum(b, prim, gamma, params("sp", ndim))]
    elif kind == "riemann":
        name, nfields = key
        left, right, gamma = params("l", nfields), params("r", nfields), b.param("gamma")
        results = get_riemann_emitter(name)(b, left, right, gamma, b.sub(gamma, 1.0))
    elif kind == "conservative":
        (nfields,) = key
        fields = params("q", nfields)
        results = state.emit_conservative_from_primitive(
            b, fields, b.sub(b.param("gamma"), 1.0)
        )
    elif kind == "characteristic":
        name, limiter, nfields = key
        cells = [params(f"c{k}_", nfields) for k in range(4)]
        left, right = characteristic.emit_reconstruct_characteristic(
            b, get_scheme_emitter(name, limiter), cells, b.sub(b.param("gamma"), 1.0)
        )
        results = list(left) + list(right)
    else:
        raise ValueError(f"unknown standalone kernel kind {kind!r}")
    for position, value in enumerate(results):
        b.output(f"out{position}", value)
    return b.finish()


@lru_cache(maxsize=None)
def program(kind, *key):
    ir = standalone_ir(kind, *key)
    verify_kernel(ir, "test")
    return NumpyProgram(ir, SCALAR_PARAMS)


def characteristic_into(reconstruction, limiter, padded, out):
    """``emit_reconstruct_characteristic`` over a padded primitive array
    into ``out=(left, right)``."""
    program("characteristic", reconstruction, limiter, padded.shape[-1]).run(
        [plane for view in stencil_views(padded, 2) for plane in field_views(view)]
        + [GAMMA],
        field_views(out[0]) + field_views(out[1]),
        WORK,
    )


# -- in place == allocating, kernel by kernel ---------------------------


@pytest.mark.parametrize("nfields", (3, 4))
@pytest.mark.parametrize("name", sorted(RIEMANN_SOLVERS))
@settings(deadline=None)
@given(case=cases("vacuum", "jump", "still", "nan"))
def test_riemann_in_place_equals_allocating(name, nfields, case):
    rng = np.random.default_rng(case.seed)
    left = primitive(rng, case.shape, nfields, case.layout)
    right = primitive(rng, case.shape, nfields, case.layout)
    plant(rng, case.features, left, right)
    solver = RIEMANN_SOLVERS[name]
    out = carve(case.shape, nfields, case.layout)
    with np.errstate(all="ignore"):
        reference = solver(left, right, GAMMA)
        program("riemann", name, nfields).run(
            field_views(left) + field_views(right) + [GAMMA], field_views(out), WORK
        )
    assert_same_bits(out, reference)


@pytest.mark.parametrize("nfields", (1, 3, 4))
@pytest.mark.parametrize("reconstruction,limiter", SCHEMES)
@settings(deadline=None)
@given(case=cases("flat", "peak", "still", "jump", "nan"))
def test_scheme_in_place_equals_allocating(reconstruction, limiter, nfields, case):
    rng = np.random.default_rng(case.seed)
    scheme = get_scheme(reconstruction, limiter)
    ghost = scheme.ghost_cells
    cells, cross = case.shape[0], case.shape[1:]  # one cell: two faces
    padded = carve((cells + 2 * ghost,) + cross, nfields, case.layout)
    padded[...] = rng.normal(0.0, 1.0, padded.shape)
    plant(rng, case.features, padded)
    out = tuple(carve((cells + 1,) + cross, nfields, case.layout) for _ in range(2))
    with np.errstate(all="ignore"):
        reference = reconstruct_component(scheme, padded, ghost)
        # the scheme programs are per element, hence field-agnostic: one
        # run covers whole multi-field arrays
        program("scheme", reconstruction, limiter).run(
            stencil_views(padded, ghost), out, WORK
        )
    assert_same_bits(out[0], reference[0])
    assert_same_bits(out[1], reference[1])


@pytest.mark.parametrize("nfields", (3, 4))
@pytest.mark.parametrize("reconstruction,limiter", SCHEMES[1:])
@settings(deadline=None)
@given(case=cases("vacuum", "thin", "cold", "jump", "still", "nan", "inf"))
def test_characteristic_in_place_equals_allocating(reconstruction, limiter, nfields, case):
    """Projection -> scheme -> back-projection as one program against
    the allocating reference, fallback side by fallback side."""
    rng = np.random.default_rng(case.seed)
    scheme = get_scheme(reconstruction, limiter)
    cells, cross = case.shape[0], case.shape[1:]
    padded = primitive(rng, (cells + 4,) + cross, nfields, case.layout)
    plant(rng, case.features, padded)
    faces = (cells + 1,) + cross
    out = tuple(carve(faces, nfields, case.layout) for _ in range(2))
    with np.errstate(all="ignore"):
        reference = reconstruct_characteristic(scheme, padded, GAMMA)
        characteristic_into(reconstruction, limiter, padded, out)
    assert_same_bits(out[0], reference[0])
    assert_same_bits(out[1], reference[1])


@pytest.mark.parametrize("nfields", (3, 4))
@pytest.mark.parametrize("reconstruction", ("tvd2", "tvd3", "weno3"))
def test_characteristic_fallback_is_per_side(reconstruction, nfields):
    """Next to a thin cell the back-projected state is often unphysical on
    one side of a face only: that side, and only that side, is the
    first-order cell value — in the reference and in the program alike."""
    rng = np.random.default_rng(20090707)
    scheme = get_scheme(reconstruction)
    padded = primitive(rng, (400, 3), nfields, "contiguous")
    padded[::9, :, 0] *= 1e-3
    padded[::9, :, -1] *= 1e-4
    views = stencil_views(padded, 2)
    first_order = views[1], views[2]
    out = tuple(np.full_like(views[1], np.nan) for _ in range(2))
    with np.errstate(all="ignore"):
        reference = reconstruct_characteristic(scheme, padded, GAMMA)
        characteristic_into(reconstruction, "minmod", padded, out)
    fell_back = [
        np.all(side == cells, axis=-1) for side, cells in zip(reference, first_order)
    ]
    assert np.count_nonzero(fell_back[0] & ~fell_back[1]) > 0
    assert np.count_nonzero(fell_back[1] & ~fell_back[0]) > 0
    for side in range(2):
        assert_same_bits(out[side], reference[side])
        kept = reference[side][~fell_back[side]]
        assert np.all(kept[..., 0] > 0.0) and np.all(kept[..., -1] > 0.0)


@pytest.mark.parametrize("nfields", (3, 4))
@settings(deadline=None)
@given(case=cases("vacuum", "jump", "still", "nan"))
def test_conversions_in_place_equal_allocating(nfields, case):
    rng = np.random.default_rng(case.seed)
    p = primitive(rng, case.shape, nfields, case.layout)
    plant(rng, case.features, p)
    with np.errstate(all="ignore"):
        u = state.conservative_from_primitive(p, GAMMA)
        u_out = carve(case.shape, nfields, case.layout)
        program("conservative", nfields).run(
            field_views(p) + [GAMMA], field_views(u_out), WORK
        )
        assert_same_bits(u_out, u)
        back = state.primitive_from_conservative(u_out, GAMMA)
        p_out = carve(case.shape, nfields, case.layout)
        numpy_program("convert", "primitive", nfields).run(
            field_views(u_out) + [GAMMA], field_views(p_out), WORK
        )
        assert_same_bits(p_out, back)


@pytest.mark.parametrize("ndim", (1, 2))
@settings(deadline=None)
@given(case=cases("vacuum", "jump", "still", "nan"), spacing=st.tuples(*[st.floats(1e-3, 2.0)] * 2))
def test_eigenvalue_sum_in_place_equals_allocating(ndim, case, spacing):
    rng = np.random.default_rng(case.seed)
    p = primitive(rng, case.shape, ndim + 2, case.layout)
    plant(rng, case.features, p)
    spacing = spacing[:ndim]
    ev = np.full(case.shape, np.nan)
    with np.errstate(all="ignore"):
        program("eigenvalues", ndim).run(field_views(p) + [GAMMA, *spacing], [ev], WORK)
    # The allocating integrand is only visible through its maximum, so
    # it is taken one cell at a time.
    for cell in np.ndindex(*case.shape):
        kind, *rest = outcome(lambda: max_eigenvalue(p[cell][None], spacing, GAMMA))
        if kind == "value":
            assert_same_bits(ev[cell], np.float64(rest[0]))
        else:
            assert not np.isfinite(ev[cell])
    kind, *rest = outcome(lambda: max_eigenvalue(p, spacing, GAMMA))
    if kind == "value":
        assert_same_bits(ev.max(), np.float64(rest[0]))
    else:
        assert not np.isfinite(ev.max())


# -- the folded program == the allocating composition -------------------

Method = namedtuple("Method", "riemann reconstruction limiter variables ndim members")

methods = st.builds(
    Method,
    riemann=st.sampled_from(sorted(RIEMANN_SOLVERS)),
    reconstruction=st.sampled_from(("pc", "tvd2", "tvd3", "weno3")),
    limiter=st.sampled_from(LIMITERS),
    variables=st.sampled_from(("primitive", "conservative", "characteristic")),
    ndim=st.sampled_from((1, 2)),
    members=st.sampled_from((1, 3)),
)


@settings(deadline=None)
@given(
    method=methods,
    case=cases("vacuum", "thin", "cold", "jump", "still", "nan", "inf"),
)
def test_engine_numpy_face_fluxes_equal_allocating_composition(method, case):
    """One padded strip through the engine's NumPy arm — stencil views,
    field planes, the spec's folded flux program — against the seed
    stepper's ``reconstruct -> riemann`` composition of the allocating
    functions, over the whole method menu (``characteristic`` + ``pc``,
    which normalises to the primitive program, included)."""
    config = SolverConfig(
        riemann=method.riemann,
        reconstruction=method.reconstruction,
        limiter=method.limiter,
        variables=method.variables,
    )
    nfields = method.ndim + 2
    rng = np.random.default_rng(case.seed)
    ghost = get_scheme(method.reconstruction, method.limiter).ghost_cells
    cells = case.shape[0]
    cross = (method.members,) + (case.shape[1:] + (1,))[: method.ndim - 1]
    padded = primitive(rng, (cells + 2 * ghost,) + cross, nfields, case.layout)
    plant(rng, case.features, padded)
    boundary = transmissive_1d() if method.ndim == 1 else all_transmissive_2d()
    engine = StepEngine(
        (cells,) + cross[1:] + (nfields,),
        (0.1,) * method.ndim,
        config,
        [boundary] * method.members,
        backend="numpy",
    )
    with np.errstate(all="ignore"):
        reference = _SweepKernel(config).face_fluxes(padded)
        flux = engine.riemann(padded)
    assert flux is engine.workspace.array("engine.flux", reference.shape)
    assert_same_bits(flux, reference)


def test_no_kernel_entry_point_takes_out_or_work():
    """The references are allocating functions and nothing else: an
    ``out=``/``work=`` parameter here would be a second way to run a
    kernel beside the spec's program."""
    entry_points = list(RIEMANN_SOLVERS.values()) + [
        schemes.piecewise_constant,
        schemes.make_tvd2("minmod"),
        schemes.tvd3,
        schemes.weno3,
        reconstruct_component,
        reconstruct_characteristic,
        state.conservative_from_primitive,
        state.primitive_from_conservative,
        max_eigenvalue,
        get_dt,
    ]
    assert len(entry_points) == 14
    for function in entry_points:
        assert not {"out", "work"} & set(inspect.signature(function).parameters), function


# -- NumPy programs == compiled C of the same emitters ------------------


def difference_into(engine, padded, spacing, target):
    """One padded strip through ``flux -> difference`` on the engine's
    executor: the compiled sweep kernel (the ``flux_row`` skeleton the
    stage runs on its windows) or the NumPy executor's strip entry: the
    interpreted flux program and flux difference IR."""
    if engine.backend is not None:
        assert engine.backend.sweep(engine, padded, spacing, target)
    else:
        engine.sweep_axis0(padded, spacing, field_views(target))


def engine_pair(config, member_shape, spacing, members=1):
    boundary = transmissive_1d() if len(spacing) == 1 else all_transmissive_2d()
    boundaries = [boundary] * members
    return [
        StepEngine(member_shape, spacing, config, boundaries, backend=backend)
        for backend in ("numpy", "jit")
    ]


@needs_cc
@pytest.mark.parametrize("riemann,reconstruction,limiter,variables,ndim", COMPOSED)
@settings(deadline=None)
@given(case=cases("vacuum", "thin", "cold", "jump", "still", "nan", "inf"), spacing=st.floats(1e-3, 2.0))
def test_numpy_sweep_equals_compiled_sweep(
    riemann, reconstruction, limiter, variables, ndim, case, spacing
):
    """One padded strip through ``reconstruct -> riemann -> difference``:
    the engine's NumPy programs against the fused C kernel."""
    config = SolverConfig(
        riemann=riemann, reconstruction=reconstruction, limiter=limiter, variables=variables
    )
    nfields = ndim + 2
    rng = np.random.default_rng(case.seed)
    cross = case.shape[1 : 1 + ndim]  # members, then the non-sweep extent
    cross = cross + (1,) * (ndim - len(cross))
    ghost = get_scheme(reconstruction, limiter).ghost_cells
    cells = case.shape[0]
    padded = primitive(rng, (cells + 2 * ghost,) + cross, nfields, "contiguous")
    plant(rng, case.features, padded)
    numpy_engine, jit_engine = engine_pair(config, (cells,) + cross[1:] + (nfields,), (spacing,) * ndim)
    results = []
    for engine in (numpy_engine, jit_engine):
        target = np.full((cells,) + cross + (nfields,), np.nan)
        with np.errstate(all="ignore"):
            difference_into(engine, padded, spacing, target)
        results.append(target)
    assert jit_engine.backend.sweep_calls == 1 and jit_engine.backend.fallbacks == {}
    assert_same_bits(results[0], results[1])


@needs_cc
@pytest.mark.parametrize("ndim", (1, 2))
@settings(deadline=None)
@given(case=cases("vacuum", "jump", "still", "nan"), spacing=st.tuples(*[st.floats(1e-3, 2.0)] * 2))
def test_numpy_dt_pass_equals_compiled_dt_pass(ndim, case, spacing):
    """``compute_dt``: conversion program + eigenvalue program against the
    fused C dt kernel — the same dts and primitives, or the same error."""
    config = SolverConfig(reconstruction="pc", riemann="rusanov")
    rng = np.random.default_rng(case.seed)
    member = (case.shape + (1, 1))[:ndim]
    p = primitive(rng, (1,) + member, ndim + 2, "contiguous")
    plant(rng, case.features, p)
    with np.errstate(all="ignore"):
        u = state.conservative_from_primitive(p, GAMMA)
    numpy_engine, jit_engine = engine_pair(config, member + (ndim + 2,), spacing[:ndim])
    results = [outcome(lambda: engine.compute_dt(u).copy()) for engine in (numpy_engine, jit_engine)]
    assert jit_engine.backend.dt_calls == 1 and jit_engine.backend.fallbacks == {}
    assert results[0][0] == results[1][0]
    if results[0][0] == "value":
        assert_same_bits(results[0][1], results[1][1])
    else:
        assert results[0] == results[1]
    assert_same_bits(
        numpy_engine.workspace.array("engine.primitive", u.shape),
        jit_engine.workspace.array("engine.primitive", u.shape),
    )


# -- vector build == reference build == NumPy, lane by lane -------------

#: Below one vector (2/4/8 doubles), exact multiples, body + remainder.
LANE_EXTENTS = (1, 2, 3, 7, 8, 9, 15, 16, 17, 33)
#: ... and around the dt pass's chunk of ``codegen.DT_CHUNK`` cells.
DT_EXTENTS = LANE_EXTENTS + (255, 256, 257, 600)
NASTY = {
    "nan": np.nan,
    "+inf": np.inf,
    "-inf": -np.inf,
    "+0": 0.0,
    "-0": -0.0,
    "denormal": 5e-324,
    "rho0": 0.0,  # field 0
    "pneg": -1.0,  # last field: p (primitive) or E (conservative)
}
#: One specialization per reconstruction family, under every solver.
LANE_SCHEMES = (
    ("pc", "minmod", "primitive"),
    ("tvd2", "minmod", "primitive"),
    ("weno3", "minmod", "characteristic"),
)

Lanes = namedtuple("Lanes", "seed rows extent offset kinds")


def lanes(extents):
    """Rows of ``extent`` points; the k-th nasty kind goes to every point
    whose index is ``offset + k`` mod 8 — each lane of an 8-wide vector
    gets each value as ``offset`` runs over 0..7."""
    return st.builds(
        Lanes,
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 3),
        extent=st.sampled_from(extents),
        offset=st.integers(0, 7),
        kinds=st.sets(st.sampled_from(sorted(NASTY)), min_size=1),
    )


def plant_lanes(rng, case, array):
    """``array`` is ``(rows, extent, fields)``; see :func:`lanes`."""
    for k, kind in enumerate(sorted(NASTY)):
        if kind not in case.kinds:
            continue
        field = {"rho0": 0, "pneg": -1}.get(kind, int(rng.integers(0, array.shape[-1])))
        row = int(rng.integers(0, array.shape[0]))
        array[row, (case.offset + k) % 8 :: 8, field] = NASTY[kind]


def engine_triple(config, member_shape, spacing, members=1):
    """NumPy engine, JIT engine (the vector build), and a JIT engine
    whose kernel is the same source built with ``REFERENCE_CFLAGS``."""
    numpy_engine, vector_engine = engine_pair(config, member_shape, spacing, members)
    reference_engine = engine_pair(config, member_shape, spacing, members)[1]
    backend = reference_engine.backend
    assert backend.ready() and vector_engine.backend.ready()
    spec = backend.spec
    source = codegen.generate_source(spec, build_flux_ir(spec), build_dt_ir(spec))
    chain = jit_compile.toolchain()
    assert vector_engine.backend._kernel is jit_compile._load(source, spec.ndim, chain)
    backend._kernel = jit_compile._load(source, spec.ndim, chain.reference())
    if chain.flags != chain.reference().flags:  # else: a compiler on the fallback
        assert backend._kernel is not vector_engine.backend._kernel
    return numpy_engine, vector_engine, reference_engine


@needs_cc
@pytest.mark.parametrize("ndim", (1, 2))
@pytest.mark.parametrize("reconstruction,limiter,variables", LANE_SCHEMES)
@pytest.mark.parametrize("riemann", sorted(RIEMANN_SOLVERS))
@settings(deadline=None)
@given(case=lanes(LANE_EXTENTS), spacing=st.floats(1e-3, 2.0))
def test_vector_sweep_equals_reference_sweep_equals_numpy(
    riemann, reconstruction, limiter, variables, ndim, case, spacing
):
    """The sweep's cross loop in SIMD lanes: every lane, the remainder
    loop and the nothing-to-vectorise extents give the scalar build's
    and NumPy's bits (NaN where NaN, signed zeros included)."""
    config = SolverConfig(
        riemann=riemann, reconstruction=reconstruction, limiter=limiter, variables=variables
    )
    nfields = ndim + 2
    rng = np.random.default_rng(case.seed)
    ghost = get_scheme(reconstruction, limiter).ghost_cells
    cells = case.rows
    # 1-D: the cross extent is the member axis; 2-D: one member's rows
    cross = (case.extent,) if ndim == 1 else (1, case.extent)
    padded = primitive(rng, (cells + 2 * ghost,) + cross, nfields, "contiguous")
    plant_lanes(rng, case, padded.reshape(-1, case.extent, nfields))
    engines = engine_triple(config, (cells,) + cross[1:] + (nfields,), (spacing,) * ndim)
    results = []
    for engine in engines:
        target = np.full((cells,) + cross + (nfields,), np.nan)
        with np.errstate(all="ignore"):
            difference_into(engine, padded, spacing, target)
        results.append(target)
    for engine in engines[1:]:
        assert engine.backend.sweep_calls == 1 and engine.backend.fallbacks == {}
    assert_same_bits(results[1], results[0])
    assert_same_bits(results[2], results[1])


@needs_cc
@pytest.mark.parametrize("ndim", (1, 2))
@settings(deadline=None)
@given(
    case=lanes(DT_EXTENTS),
    spacing=st.tuples(*[st.floats(1e-3, 2.0)] * 2),
)
def test_vector_dt_pass_equals_reference_dt_pass_equals_numpy(ndim, case, spacing):
    """The dt pass's chunked cell loop: the same primitives, the same
    per-member maxima (NaN members included) and the same dts or error,
    across chunk boundaries and on every lane."""
    config = SolverConfig(reconstruction="pc", riemann="rusanov")
    rng = np.random.default_rng(case.seed)
    members, nfields = case.rows, ndim + 2
    member = (case.extent, 1)[:ndim]
    p = primitive(rng, (members,) + member, nfields, "contiguous")
    with np.errstate(all="ignore"):
        u = state.conservative_from_primitive(p, GAMMA)
    plant_lanes(rng, case, u.reshape(members, case.extent, nfields))
    engines = engine_triple(config, member + (nfields,), spacing[:ndim], members)
    results = [outcome(lambda: engine.compute_dt(u).copy()) for engine in engines]
    for engine in engines[1:]:
        assert engine.backend.dt_calls == 1 and engine.backend.fallbacks == {}
    for other in results[1:]:
        assert other[0] == results[0][0]
        if other[0] == "value":
            assert_same_bits(other[1], results[0][1])
        else:
            assert other == results[0]
    buffers = [
        (engine.workspace.array("engine.primitive", u.shape),
         engine.workspace.array("engine.dt_member_max", (members,)))
        for engine in engines
    ]
    for other in buffers[1:]:
        assert_same_bits(other[0], buffers[0][0])
        assert_same_bits(other[1], buffers[0][1])


# -- the evaluator's own rules ------------------------------------------


def composed_programs():
    for riemann, reconstruction, limiter, variables, ndim in COMPOSED:
        config = SolverConfig(
            riemann=riemann, reconstruction=reconstruction, limiter=limiter, variables=variables
        )
        spec = spec_from_config(config, ndim)
        yield spec, kernel_programs(spec)


def test_no_slot_is_read_after_reassignment():
    """Replay the register schedule of every fused program of COMPOSED
    (the 683-op weno3/characteristic flux program among them): each read
    finds the value it names still in place, outputs survive to the end,
    and a ``select`` never writes over its condition or its then-operand."""
    assert max(len(flux.ir.ops) for _, (flux, _) in composed_programs()) >= 683
    for spec, programs in composed_programs():
        for program in programs:
            register = program.registers
            holder = {}
            for op in program.ir.ops:
                for arg in op.args:
                    assert holder[register[arg]] == arg, (spec, op)
                if op.opcode == "select":
                    cond, then, _ = op.args
                    assert register[op.name] not in (register[cond], register[then]), (spec, op)
                holder[register[op.name]] = op.name
            # an output no op computes in place is copied at the end: its
            # source must have survived until then
            for _, value in program.ir.outputs:
                assert holder[register[value]] == value, (spec, value)


def test_threads_share_a_program_but_no_scratch():
    """Two threads run one fused flux program on two workspaces: serial
    bits on both, and no buffer of one workspace overlaps one of the other."""
    rng = np.random.default_rng(7)
    shape, nfields, rounds = (40, 30), 4, 25
    left = primitive(rng, shape, nfields, "contiguous")
    right = primitive(rng, shape, nfields, "contiguous")
    flux_program, _ = kernel_programs(spec_from_config(SolverConfig(reconstruction="pc"), 2))
    params = field_views(left) + field_views(right) + [GAMMA]
    serial = np.empty_like(left)
    flux_program.run(params, field_views(serial), Workspace())
    assert_same_bits(serial, RIEMANN_SOLVERS["hllc"](left, right, GAMMA))
    workspaces = [Workspace(), Workspace()]
    outputs = [np.empty_like(left), np.empty_like(left)]
    mismatches = [0, 0]

    def worker(index):
        for _ in range(rounds):
            outputs[index].fill(np.nan)
            flux_program.run(params, field_views(outputs[index]), workspaces[index])
            if not np.array_equal(outputs[index], serial):
                mismatches[index] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == [0, 0]
    assert len(workspaces[0]) and len(workspaces[0]) == len(workspaces[1])
    for mine in workspaces[0].buffers():
        for theirs in workspaces[1].buffers():
            assert not np.shares_memory(mine, theirs)


@pytest.mark.parametrize("riemann,reconstruction,limiter,variables,ndim", COMPOSED)
def test_planned_row_bytes_cover_what_a_strip_holds(
    riemann, reconstruction, limiter, variables, ndim
):
    """After a one-strip NumPy sweep, everything the strip held — the
    scratch the workspace handed the flux program, the flux rows, the
    padded stencil and the output rows — fits ``row_bytes x rows`` of the
    plan that sized it: the row size is read off the program that runs."""
    config = SolverConfig(
        riemann=riemann,
        reconstruction=reconstruction,
        limiter=limiter,
        variables=variables,
        tile_bytes=0,
    )
    rows, cross, nfields = 4, (2, 5)[:ndim], ndim + 2
    boundary = transmissive_1d() if ndim == 1 else all_transmissive_2d()
    engine = StepEngine(
        (rows,) + cross[1:] + (nfields,), (0.1,) * ndim, config, [boundary] * 2,
        backend="numpy",
    )
    ghost = engine.ghost_cells
    padded = primitive(
        np.random.default_rng(3), (rows + 2 * ghost,) + cross, nfields, "contiguous"
    )
    target = np.empty((rows,) + cross + (nfields,))
    plan = engine.stage_plan().sweeps[0].tiles
    assert len(plan) == 1 and plan.strip_rows == rows
    with np.errstate(all="ignore"):
        engine.sweep_axis0(padded, 0.1, field_views(target))
    names = {key[0] for key in engine.workspace._arrays}
    flux_program, _ = kernel_programs(engine.spec)
    difference = numpy_program("difference", "write")
    assert names == {"engine.flux"} | {
        f"{program.name}.{dtype}"
        for program in (flux_program, difference)
        for dtype, slots in program.slots.items()
        if slots
    }
    held = engine.workspace.nbytes + padded.nbytes + target.nbytes
    assert plan.row_bytes == tiling.sweep_row_bytes(
        int(np.prod(cross)), nfields, flux_program, ghost
    )
    assert held <= plan.row_bytes * rows
