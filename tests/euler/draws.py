"""The draws the generated tests share: methods, edges and states.

One place for what the solver-level strategy (``test_single_path.py``),
the stage differential (``test_stage_plan.py``) and the kernel-level
differential (``test_kernel_single_source.py``) draw from: the method
menu, the edge codes and the conditions they build, smooth states and
the nasty-state features planted into them, and the two comparisons
every differential ends in (:func:`assert_same_bits`, :func:`outcome`).
A new draw lands here once.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

import repro.jit
from repro.errors import PhysicsError
from repro.euler.boundary import (
    BoundarySet1D,
    BoundarySet2D,
    EdgeSpec,
    ReflectiveWall,
    SupersonicInflow,
    Transmissive,
)
from repro.euler.riemann import RIEMANN_SOLVERS

GAMMA = 1.4
LIMITERS = ("minmod", "superbee", "vanleer", "mc")
RECONSTRUCTIONS = ("pc", "tvd2", "tvd3", "weno3")
#: Schemes whose stencil consults the limiter; pc and weno3 ignore it.
LIMITED_SCHEMES = ("tvd2", "tvd3")
RIEMANN = tuple(sorted(RIEMANN_SOLVERS))
VARIABLES = ("primitive", "conservative", "characteristic")

HAVE_CC = repro.jit.available()
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
#: The executors a solver-level draw may run on (the compiled one first:
#: hypothesis favours the first of a ``sampled_from``).
BACKENDS = ("jit", "numpy") if HAVE_CC else ("numpy",)

#: A method tuple as :class:`~repro.euler.solver.SolverConfig` keywords.
methods = st.fixed_dictionaries(
    {
        "riemann": st.sampled_from(RIEMANN),
        "reconstruction": st.sampled_from(RECONSTRUCTIONS),
        "limiter": st.sampled_from(LIMITERS),
        "variables": st.sampled_from(VARIABLES),
        "rk_order": st.sampled_from((3, 2, 1)),
    }
)

#: Nasty features a whole-solver draw plants (see :func:`plant`); a
#: state carrying one may make a step raise.
state_features = st.sets(
    st.sampled_from(("vacuum", "thin", "cold", "jump", "still", "nan", "inf")), max_size=2
)

#: Per edge: a uniform kind (``T`` open, ``W`` wall, ``I`` inflow), the
#: piecewise mix of all three (``P``) or two overlapping segments (``O``).
EDGE_CODES = "TWIPO"
INFLOW = {1: (1.2, 0.3, 1.1), 2: (1.2, 0.3, 0.1, 1.1)}  # sweep layout
SPACING = {1: (0.01,), 2: (0.01, 0.012)}


def smooth(rng, shape, nfields):
    """Gentle random primitive states: rough ones blow up physically
    within two CFL steps on *any* path, so an equality check on them
    would be a lottery of exceptions."""
    p = np.empty(shape + (nfields,))
    p[..., 0] = rng.uniform(1.0, 1.4, shape)
    p[..., 1:-1] = rng.normal(0.0, 0.3, shape + (nfields - 2,))
    p[..., -1] = rng.uniform(1.0, 1.4, shape)
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


def condition(code, ndim):
    return {"T": Transmissive(), "W": ReflectiveWall(), "I": SupersonicInflow(INFLOW[ndim])}[code]


def edge_spec(code, ndim):
    """``P`` is inflow | wall | open along the edge, the wall's end left
    to Python's slice semantics; ``O`` a wall on ``[0, 5)`` overlapped by
    inflow from 3 on, the later segment winning ``[3, 5)``."""
    if code == "O":
        return EdgeSpec().add(0, 5, condition("W", ndim)).add(3, None, condition("I", ndim))
    if code != "P":
        return EdgeSpec.uniform(condition(code, ndim))
    return (
        EdgeSpec()
        .add(0, 3, condition("I", ndim))
        .add(3, -2, condition("W", ndim))
        .add(-2, None, condition("T", ndim))
    )


def boundary_sets(codes, members, ndim):
    """One boundary set per member from the edge codes, in order: a 1-D
    tube takes two (a bare condition on one end, a uniform EdgeSpec on
    the other), a 2-D grid four."""
    codes = iter(codes)
    sets = []
    for _ in range(members):
        if ndim == 1:
            low, high = (next(codes).replace("P", "W").replace("O", "I") for _ in range(2))
            sets.append(BoundarySet1D(condition(low, 1), edge_spec(high, 1)))
        else:
            sets.append(BoundarySet2D(*(edge_spec(next(codes), 2) for _ in range(4))))
    return sets


#: Edge codes enough for any draw (three 2-D members); :func:`boundary_sets`
#: takes the ones it needs, in order.
edge_codes = st.lists(st.sampled_from(EDGE_CODES), min_size=12, max_size=12)


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
