"""Kernel specializations and their IR assembly.

A :class:`KernelSpec` is the method tuple the engine's NumPy path
dispatches on — ``(riemann, reconstruction, limiter, variables,
ndim)``; the element type is always float64.  For a supported spec this
module assembles two straight-line SSA kernels from the ``emit_*``
definitions that live next to the allocating reference functions:

* the **flux kernel** — the whole per-face ``reconstruct -> riemann``
  chain from one stencil of primitive cells to one numerical flux
  vector (the difference step is applied by the codegen sweep
  skeleton, see :mod:`repro.jit.codegen`);
* the **dt kernel** — the fused per-cell ``convert -> eigenvalue``
  GetDT integrand, including the primitive conversion the engine keeps
  fresh for the first Runge-Kutta stage.

Every method tuple has a spec.  ``characteristic`` variables with
``pc``'s one-cell stencil normalise to the bit-identical ``primitive``
kernel (the NumPy path skips the projection there itself); with a wide
stencil the flux kernel carries the whole eigenvector projection
(:func:`repro.euler.reconstruction.characteristic.
emit_reconstruct_characteristic`).

The same emitters also make the **standalone kernels** — one Riemann
solver, one reconstruction scheme, one state conversion, the GetDT
eigenvalue sum, the characteristic projection and back-projection —
whose :class:`~repro.jit.numpy_eval.NumpyProgram` *is*
the ``out=``/``work=`` path of the corresponding :mod:`repro.euler`
function (:func:`repro.jit.numpy_eval.numpy_program`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.euler import state, timestep
from repro.euler.reconstruction import (
    LIMITER_EMITTERS,
    characteristic,
    get_scheme,
    get_scheme_emitter,
)
from repro.euler.riemann import RIEMANN_EMITTERS, get_riemann_emitter
from repro.jit.ir import IRBuilder, KernelIR

__all__ = [
    "KernelSpec",
    "spec_from_config",
    "build_flux_ir",
    "build_dt_ir",
    "SCALAR_PARAMS",
    "standalone_kernels",
    "build_standalone_ir",
]


@dataclass(frozen=True)
class KernelSpec:
    """One compiled specialization (float64 throughout)."""

    riemann: str
    reconstruction: str
    limiter: str
    variables: str
    ndim: int

    @property
    def nfields(self) -> int:
        return self.ndim + 2

    @property
    def ghost_cells(self) -> int:
        return get_scheme(self.reconstruction, self.limiter).ghost_cells

    def label(self) -> str:
        """Human-readable name used in diagnostics and obs counters."""
        return (
            f"{self.riemann}/{self.reconstruction}/{self.limiter}/"
            f"{self.variables}/float64/{self.ndim}d"
        )

    def symbol(self) -> str:
        """A C-identifier-safe stem for the generated functions."""
        return (
            f"{self.riemann}_{self.reconstruction}_{self.limiter}_"
            f"{self.variables}_{self.ndim}d"
        )


def spec_from_config(config, ndim: int) -> KernelSpec:
    """The specialization serving ``config`` on an ``ndim``-D grid.

    ``variables="characteristic"`` with a one-cell stencil normalises to
    ``primitive``: :func:`~repro.euler.reconstruction.characteristic.
    reconstruct_characteristic` skips the projection entirely for
    ``ghost_cells == 1`` (piecewise-constant is basis-independent), so
    the primitive kernel is bit-for-bit the NumPy characteristic path.
    """
    variables = config.variables
    if (
        variables == "characteristic"
        and get_scheme(config.reconstruction, config.limiter).ghost_cells == 1
    ):
        variables = "primitive"
    return KernelSpec(
        riemann=config.riemann,
        reconstruction=config.reconstruction,
        limiter=config.limiter,
        variables=variables,
        ndim=int(ndim),
    )


def build_flux_ir(spec: KernelSpec) -> KernelIR:
    """Assemble the per-face flux kernel IR for ``spec``.

    Inputs are the ``2 * ghost_cells`` stencil cells of *primitive*
    fields (``c{k}_{f}``, ordered like
    :func:`~repro.euler.reconstruction.base.stencil_views`) plus
    ``gamma``; outputs are ``flux0..flux{F-1}``.  The emitters state
    the exact operation sequence of the engine's
    ``reconstruct -> riemann`` chain for one face.
    """
    nfields = spec.nfields
    stencil = 2 * spec.ghost_cells
    b = IRBuilder(f"flux_{spec.symbol()}")
    cells = [
        [b.param(f"c{k}_{f}") for f in range(nfields)] for k in range(stencil)
    ]
    gamma = b.param("gamma")
    gm1 = b.sub(gamma, 1.0)

    scheme_emit = get_scheme_emitter(spec.reconstruction, spec.limiter)
    if spec.variables == "primitive":
        left, right = _reconstruct_fields(b, scheme_emit, cells, nfields)
    elif spec.variables == "conservative":
        # The engine's conservative branch: convert the whole
        # padded stencil, reconstruct componentwise in conservative
        # space, convert the face states back.  The scalar conversion of
        # a stencil cell produces the same bits every time it is
        # recomputed, exactly like the array conversion of that cell.
        cons_cells = [
            state.emit_conservative_from_primitive(b, cell, gm1)
            for cell in cells
        ]
        cons_left, cons_right = _reconstruct_fields(
            b, scheme_emit, cons_cells, nfields
        )
        left = state.emit_primitive_from_conservative(b, cons_left, gm1)
        right = state.emit_primitive_from_conservative(b, cons_right, gm1)
    elif spec.variables == "characteristic":
        left, right = characteristic.emit_reconstruct_characteristic(
            b, scheme_emit, cells, gm1
        )
    else:
        raise ValueError(
            f"unsupported variables mode {spec.variables!r} in {spec.label()}"
        )

    riemann_emit = get_riemann_emitter(spec.riemann)
    flux = riemann_emit(b, left, right, gamma, gm1)
    for field, value in enumerate(flux):
        b.output(f"flux{field}", value)
    return b.finish()


def _reconstruct_fields(b, scheme_emit, cells, nfields):
    """Componentwise reconstruction: each field's stencil through the
    scheme independently (fields are elementwise-independent in the
    NumPy path, so per-field order is irrelevant to bit identity)."""
    left = []
    right = []
    for field in range(nfields):
        stencil = [cell[field] for cell in cells]
        left_value, right_value = scheme_emit(b, stencil)
        left.append(left_value)
        right.append(right_value)
    return left, right


def build_dt_ir(spec: KernelSpec) -> KernelIR:
    """Assemble the fused per-cell convert+GetDT kernel IR for ``spec``.

    Inputs are the conservative fields ``u0..u{F-1}``, ``gamma`` and the
    spacings ``sp0``/``sp1``; outputs the primitive fields
    ``prim0..prim{F-1}`` (the engine keeps the converted strip fresh for
    RK stage 1) and the eigenvalue integrand ``ev`` —
    :func:`repro.euler.state.emit_primitive_from_conservative` followed
    by :func:`repro.euler.timestep.emit_eigenvalue_sum`.
    """
    nfields = spec.nfields
    b = IRBuilder(f"dt_{spec.symbol()}")
    u = [b.param(f"u{f}") for f in range(nfields)]
    gamma = b.param("gamma")
    spacings = [b.param(f"sp{axis}") for axis in range(spec.ndim)]
    gm1 = b.sub(gamma, 1.0)

    prim = state.emit_primitive_from_conservative(b, u, gm1)
    ev = timestep.emit_eigenvalue_sum(b, prim, gamma, spacings)

    for field, value in enumerate(prim):
        b.output(f"prim{field}", value)
    b.output("ev", ev)
    return b.finish()


# -- standalone kernels: the in-place NumPy path -------------------------

#: Parameters a standalone program's caller binds to floats, not arrays.
SCALAR_PARAMS = ("gamma", "sp0", "sp1")

_CONVERSIONS = {
    "primitive": state.emit_primitive_from_conservative,
    "conservative": state.emit_conservative_from_primitive,
}


def standalone_kernels() -> List[Tuple]:
    """Every ``(kind, *key)`` :func:`build_standalone_ir` builds: Riemann solver
    × field count, scheme × limiter (where the scheme consults it),
    conversion × field count, eigenvalue sum × dimension, and the two
    halves of the characteristic reconstruction (the wide schemes all
    have two ghost cells) × field count."""
    limiters = {"tvd2": tuple(LIMITER_EMITTERS)}
    return (
        [("riemann", name, nfields) for name in RIEMANN_EMITTERS for nfields in (3, 4)]
        + [
            ("scheme", name, limiter)
            for name in ("pc", "tvd2", "tvd3", "weno3")
            for limiter in limiters.get(name, ("minmod",))
        ]
        + [("convert", target, nfields) for target in _CONVERSIONS for nfields in (3, 4)]
        + [("eigenvalues", ndim) for ndim in (1, 2)]
        + [("project", 2, nfields) for nfields in (3, 4)]
        + [("unproject", nfields) for nfields in (3, 4)]
    )


def build_standalone_ir(kind: str, *key) -> KernelIR:
    """The IR of one standalone kernel, named ``kind_key...``; outputs
    are ``out0..`` in the emitter's order.

    ``riemann``: primitive ``l*``/``r*`` fields and ``gamma`` in, the
    flux out.  ``scheme``: one field's ``2 * ghost_cells`` stencil cells
    in, (left, right) out.  ``convert``: ``q*`` fields and ``gamma`` in,
    the converted fields out.  ``eigenvalues``: ``prim*`` fields,
    ``gamma`` and the spacings ``sp*`` in, the GetDT integrand out.
    ``project``: the ``2 * ghost_cells`` primitive stencil cells
    ``c{k}_*`` and ``gamma`` in, each cell's characteristic variables
    out, cell by cell.  ``unproject``: the face's adjacent primitive
    cells ``l*``/``r*``, the reconstructed characteristic states
    ``wl*``/``wr*`` and ``gamma`` in, the primitive left then right face
    states out.
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
    elif kind == "convert":
        target, nfields = key
        fields = params("q", nfields)
        results = _CONVERSIONS[target](b, fields, b.sub(b.param("gamma"), 1.0))
    elif kind == "project":
        ghost_cells, nfields = key
        cells = [params(f"c{k}_", nfields) for k in range(2 * ghost_cells)]
        gm1 = b.sub(b.param("gamma"), 1.0)
        (matrix,) = characteristic.emit_eigen_matrices(
            b, cells[ghost_cells - 1], cells[ghost_cells], gm1, sides="L"
        )
        projected = characteristic.emit_project_stencil(b, matrix, cells, gm1)
        results = [value for cell in projected for value in cell]
    elif kind == "unproject":
        (nfields,) = key
        adjacent = params("l", nfields), params("r", nfields)
        char_left, char_right = params("wl", nfields), params("wr", nfields)
        gm1 = b.sub(b.param("gamma"), 1.0)
        (matrix,) = characteristic.emit_eigen_matrices(b, *adjacent, gm1, sides="R")
        left, right = characteristic.emit_unproject_faces(
            b, matrix, char_left, char_right, adjacent, gm1
        )
        results = left + right
    else:
        raise ValueError(f"unknown standalone kernel kind {kind!r}")
    for position, value in enumerate(results):
        b.output(f"out{position}", value)
    return b.finish()
