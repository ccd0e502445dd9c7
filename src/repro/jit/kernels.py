"""Kernel specializations and their IR assembly.

A :class:`KernelSpec` is the method tuple the engine dispatches on —
``(riemann, reconstruction, limiter, variables, ndim)``; the element
type is always float64.  For every spec this module assembles two
straight-line SSA kernels from the ``emit_*`` definitions that live next
to the allocating reference functions:

* the **flux kernel** — the whole per-face ``reconstruct -> riemann``
  chain from one stencil of primitive cells to one numerical flux
  vector (the flux difference follows it, :func:`build_difference_ir`);
* the **dt kernel** — the fused per-cell ``convert -> eigenvalue``
  GetDT integrand, including the primitive conversion the engine keeps
  fresh for the first Runge-Kutta stage.

That pair is the *one program per spec*: :func:`kernel_irs` builds and
verifies it once per process, and a strip is executed either by the C
generated from it (:func:`kernel_source`, :class:`~repro.jit.backend.
JitBackend`) or by :class:`~repro.jit.numpy_eval.NumpyProgram` over the
same two IRs (:func:`~repro.jit.numpy_eval.kernel_programs`, the
engine's NumPy arm).  The C runs the flux program split into a per-cell
and a per-face program where the stencil is two cells
(:func:`flux_split`, :mod:`repro.jit.hoist`): the same ops, so the same
bits, with each cell's share computed once instead of once per face.
``characteristic`` variables with ``pc``'s
one-cell stencil normalise to the bit-identical ``primitive`` kernel,
decided in :func:`spec_from_config` and nowhere else; with a wide
stencil the flux kernel carries the whole eigenvector projection
(:func:`repro.euler.reconstruction.characteristic.
emit_reconstruct_characteristic`).

Beside the pair stand the other pointwise bodies of a stage
(:mod:`repro.jit.plan`): the **standalone conversion**, which
Runge-Kutta stages 2 and 3 run without a dt pass, the **flux
differences** a sweep writes (axis 0) or accumulates (axis 1) into
``k``, and the **combines** of the TVD-RK schedules
(:func:`repro.euler.rk.emit_combine`).  All are spec-independent; every
translation unit carries them next to its flux and dt kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from repro.euler import rk, state, timestep
from repro.euler.reconstruction import characteristic, get_scheme, get_scheme_emitter
from repro.euler.riemann import get_riemann_emitter
from repro.jit import codegen
from repro.jit.hoist import FluxSplit, split_flux
from repro.jit.ir import IRBuilder, KernelIR

__all__ = [
    "KernelSpec",
    "spec_from_config",
    "build_flux_ir",
    "build_dt_ir",
    "kernel_irs",
    "flux_split",
    "kernel_source",
    "SCALAR_PARAMS",
    "standalone_kernels",
    "build_standalone_ir",
    "build_combine_ir",
    "DIFFERENCES",
    "build_difference_ir",
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
    the primitive kernel is bit-for-bit the characteristic reference.
    Both executors take their spec from here, so the rule is stated once.
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
    the exact operation sequence of the allocating
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
        # The reference's conservative branch: convert the whole
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
    reference, so per-field order is irrelevant to bit identity)."""
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


@lru_cache(maxsize=None)
def kernel_irs(spec: KernelSpec) -> Tuple[KernelIR, KernelIR]:
    """The verified ``(flux IR, dt IR)`` of ``spec``, built once per
    process — the one program both executors run.  Verification happens
    here, so a malformed emitter fails by specialization name whichever
    executor asks first; the cache is bounded by the method menu.
    (The verifier is imported on a miss only: :mod:`repro.analysis` pulls
    in both language front ends.)"""
    from repro.analysis.jit_verify import verify_kernel

    irs = build_flux_ir(spec), build_dt_ir(spec)
    for ir in irs:
        verify_kernel(ir, spec.label())
    return irs


@lru_cache(maxsize=None)
def flux_split(spec: KernelSpec) -> FluxSplit:
    """The flux program of :func:`kernel_irs` as the compiled sweep runs
    it — cell program and face program (:func:`repro.jit.hoist.
    split_flux`) — split and verified once per process.  A spec wider
    than two cells is not analysed: its face program is the flux program."""
    from repro.analysis.jit_verify import verify_kernel

    split = split_flux(kernel_irs(spec)[0], 2 * spec.ghost_cells)
    if split.cell is not None:
        for ir in (split.cell, split.face):
            verify_kernel(ir, spec.label())
    return split


@lru_cache(maxsize=None)
def kernel_source(spec: KernelSpec) -> str:
    """The C text generated from :func:`kernel_irs` and :func:`flux_split`,
    printed once per process (:func:`repro.jit.compile.load_kernel` keys
    on it)."""
    return codegen.generate_source(spec, *kernel_irs(spec), flux_split(spec))


# -- the standalone kernel -----------------------------------------------

#: Parameters a program's caller binds to floats, not arrays.
SCALAR_PARAMS = ("gamma", "sp0", "sp1", "dx")

#: What a sweep does with its flux difference: sweep 0 writes ``k``,
#: sweep 1 adds to it.
DIFFERENCES = ("write", "accumulate")


def standalone_kernels() -> List[Tuple]:
    """Every ``(kind, *key)`` :func:`build_standalone_ir` builds ahead of
    time: the primitive conversion per field count and the two flux
    differences."""
    return [("convert", "primitive", nfields) for nfields in (3, 4)] + [
        ("difference", kind) for kind in DIFFERENCES
    ]


def build_standalone_ir(kind: str, *key) -> KernelIR:
    """The IR of a stage body that no spec's pair contains: the
    conversion ``("convert", "primitive", nfields)``, named
    ``convert_primitive_N`` — conservative ``q*`` fields and ``gamma`` in,
    the primitive fields ``out0..`` out — ``("difference", kind)`` or
    ``("combine", kind)``."""
    if kind == "combine":
        return build_combine_ir(*key)
    if kind == "difference":
        return build_difference_ir(*key)
    if kind != "convert" or len(key) != 2 or key[0] != "primitive":
        raise ValueError(f"unknown standalone kernel {(kind, *key)!r}")
    nfields = key[1]
    b = IRBuilder(f"convert_primitive_{nfields}")
    fields = [b.param(f"q{i}") for i in range(nfields)]
    gm1 = b.sub(b.param("gamma"), 1.0)
    results = state.emit_primitive_from_conservative(b, fields, gm1)
    for position, value in enumerate(results):
        b.output(f"out{position}", value)
    return b.finish()


def build_combine_ir(kind: str) -> KernelIR:
    """The IR of one Runge-Kutta combine (:data:`repro.euler.rk.COMBINES`):
    per element, ``u``, the stage source ``v``, ``k = L(v)`` and the
    member's ``dt`` in, the stage target ``out`` out.  The output is the
    last op, so a target that aliases ``u`` is written only after every
    read of it."""
    b = IRBuilder(f"combine_{kind}")
    u, v, k, dt = (b.param(name) for name in ("u", "v", "k", "dt"))
    b.output("out", rk.emit_combine(b, kind, u, v, k, dt))
    ir = b.finish()
    assert ir.ops[-1].name == ir.outputs[0][1]
    return ir


def build_difference_ir(kind: str) -> KernelIR:
    """The IR of a sweep's flux difference (:data:`DIFFERENCES`): per
    element, the fluxes ``fc``/``fp`` at a cell's high and low face and
    the sweep's spacing ``dx`` in, ``out = -(fc - fp) / dx`` out — or,
    ``"accumulate"``, ``out = t + that`` for the stage's ``t``.  The
    output is the last op, so ``out`` may alias ``t``."""
    if kind not in DIFFERENCES:
        raise ValueError(f"unknown flux difference {kind!r}; have {DIFFERENCES}")
    b = IRBuilder(f"difference_{kind}")
    t = b.param("t") if kind == "accumulate" else None
    fc, fp, dx = (b.param(name) for name in ("fc", "fp", "dx"))
    d = b.div(b.neg(b.sub(fc, fp)), dx)
    b.output("out", d if t is None else b.add(t, d))
    return b.finish()
