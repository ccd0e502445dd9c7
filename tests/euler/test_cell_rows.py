"""Cell rows: the split flux program against the unsplit one.

Where the stencil is two cells the compiled sweep runs the flux program
split in two (:func:`repro.jit.hoist.split_flux`): a cell program once
per window row into rolling cell rows, and a face program reading them.
The property holds every two-cell spec of the lint's matrix to the
unsplit program at 0.0, NaN-aware: the cell and face programs,
recomposed over shifted rows and interpreted by ``numpy_eval``, give the
flux program's bits on rows carrying NaN, +-inf, +-0, rho <= 0 and
p < 0; and with a C compiler the compiled sweep, which runs the split
through its rolling cell rows, gives the flux differences of the
unsplit program.  A wider stencil hoists nothing.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cli import matrix_specs
from repro.euler.boundary import all_transmissive_2d, transmissive_1d
from repro.euler.engine import StepEngine
from repro.euler.solver import SolverConfig
from repro.jit.hoist import split_flux
from repro.jit.kernels import SCALAR_PARAMS, flux_split, kernel_irs
from repro.jit.numpy_eval import NumpyProgram, numpy_program

from tests.euler.draws import GAMMA, HAVE_CC, assert_same_bits

SPECS = matrix_specs()
TWO_CELL = [spec for spec in SPECS if 2 * spec.ghost_cells == 2]
#: Planted values: any field, then density and pressure out of range.
NASTY = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf, "+0": 0.0, "-0": -0.0}
UNPHYSICAL = {"rho0": (0, 0.0), "rho<0": (0, -0.5), "p<0": (-1, -1.0)}


def test_two_cell_specs_hoist_and_wider_ones_do_not():
    assert len(TWO_CELL) == 16
    for spec in TWO_CELL:
        split = flux_split(spec)
        assert split.forms > 0, spec.label()
        assert {op.opcode for op in split.cell.ops} & {"div", "sqrt"}
        assert all(op.dtype == "f64" for op in split.cell.ops if op.opcode != "param")
        assert [c_name for c_name, _ in split.cell.params] == [
            f"cell{f}" for f in range(spec.nfields)
        ] + ["gamma"]
    for spec in SPECS:
        if spec.ghost_cells > 1:
            flux_ir = kernel_irs(spec)[0]
            split = flux_split(spec)
            assert split.cell is None and split.forms == 0 and split.face is flux_ir
            assert split_flux(flux_ir, 2 * spec.ghost_cells).forms == 0


@lru_cache(maxsize=None)
def programs(spec):
    split = flux_split(spec)
    return tuple(
        NumpyProgram(ir, SCALAR_PARAMS) for ir in (kernel_irs(spec)[0], split.cell, split.face)
    )


def run(program, named, shape):
    outputs = [np.empty(shape) for _ in program.ir.outputs]
    program.run([named[c_name] for c_name, _ in program.ir.params], outputs)
    return outputs


@lru_cache(maxsize=None)
def compiled(spec):
    """A compiled engine of ``spec``: its backend serves any strip."""
    config = SolverConfig(
        riemann=spec.riemann,
        reconstruction=spec.reconstruction,
        limiter=spec.limiter,
        variables=spec.variables,
    )
    if spec.ndim == 2:
        shape, boundary = (3, 1, spec.nfields), all_transmissive_2d()
    else:
        shape, boundary = (3, spec.nfields), transmissive_1d()
    return StepEngine(shape, (0.5,) * spec.ndim, config, [boundary], backend="jit")


@pytest.mark.parametrize("spec", TWO_CELL, ids=lambda spec: spec.label())
@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(3, 7),
    lanes=st.integers(1, 11),
    plants=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(sorted(NASTY) + sorted(UNPHYSICAL))),
        max_size=8,
    ),
)
def test_cell_and_face_programs_equal_the_flux_program(spec, seed, rows, lanes, plants):
    rng = np.random.default_rng(seed)
    nfields = spec.nfields
    window = np.empty((rows, lanes, nfields))
    window[..., 0] = rng.uniform(0.2, 2.0, (rows, lanes))
    window[..., 1:-1] = rng.uniform(-1.5, 1.5, (rows, lanes, nfields - 2))
    window[..., -1] = rng.uniform(0.2, 2.0, (rows, lanes))
    for position, kind in plants:
        row, lane = divmod(position % (rows * lanes), lanes)
        if kind in NASTY:
            window[row, lane, position % nfields] = NASTY[kind]
        else:
            field, value = UNPHYSICAL[kind]
            window[row, lane, field] = value
    flux, cell, face = programs(spec)
    faces = (rows - 1, lanes)
    with np.errstate(all="ignore"):
        # face j reads cells j and j + 1: each stencil offset is a shifted row range
        fields = {
            f"c{k}_{f}": window[k : k + rows - 1, :, f] for k in range(2) for f in range(nfields)
        }
        unsplit = run(flux, {**fields, "gamma": GAMMA}, faces)
        cells = {f"cell{f}": window[..., f] for f in range(nfields)}
        hoisted = run(cell, {**cells, "gamma": GAMMA}, (rows, lanes))
        shifted = {
            f"h{k}_{m}": values[k : k + rows - 1]
            for k in range(2)
            for m, values in enumerate(hoisted)
        }
        split = run(face, {**fields, **shifted, "gamma": GAMMA}, faces)
    for expected, actual in zip(unsplit, split):
        assert_same_bits(actual, expected)

    if not HAVE_CC:
        return
    engine = compiled(spec)
    padded = window if spec.ndim == 1 else window[:, None]
    out = np.full((rows - 2,) + padded.shape[1:], np.nan)
    with np.errstate(all="ignore"):
        assert engine.backend.sweep(engine, np.ascontiguousarray(padded), 0.5, out)
        difference = numpy_program("difference", "write")
        expected = np.empty((rows - 2, lanes, nfields))
        for f, values in enumerate(unsplit):
            difference.run([values[1:], values[:-1], 0.5], [expected[..., f]])
    assert_same_bits(out.reshape(expected.shape), expected)
