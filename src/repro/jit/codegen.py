"""Lowering verified kernel IR to C99.

One translation unit per specialization, containing:

* ``flux_point`` — the straight-line per-face flux function (the whole
  ``reconstruct -> riemann`` chain for one face), inlined by the C
  compiler into
* ``repro_jit_sweep`` — the strip sweep: for each face row, compute
  fluxes into one of two rolling row buffers (caller-provided scratch,
  no allocation), then difference against the previous row exactly as
  the NumPy path does (``d = f[j] - f[j-1]; d = -d; d = d / dx``);
* ``dt_point`` + ``repro_jit_dt`` — the fused per-cell
  convert+eigenvalue GetDT pass with a per-group NaN-propagating max
  reduction (group = one strip for the solo engine, one member for the
  batch engine), in chunks of :data:`DT_CHUNK` cells: ``dt_point`` fills
  a stack buffer of eigenvalue sums (a loop with no carried value),
  then the max runs over the buffer.

The C is written so that the system compiler can run both point loops —
the sweep's cross loop and the dt pass's cell loop — in SIMD lanes
under :data:`CFLAGS` (the *vector build*; no intrinsics, one text):
the array-of-structs ``padded[((j+k)*cross+i)*F+f]`` reads become
interleaved load groups and every ``select``/``nmin``/``nmax``/``nsign``
ternary a blend.  Whether that happened for a given kernel is read back
from the compiler by :mod:`repro.jit.compile`, not assumed.

Bit-identity ground rules baked in here:

* every SSA op lowers to exactly one C double operation; the build
  flags (:data:`CFLAGS`, each with its value-neutrality argument beside
  it) disable floating-point contraction so the compiler cannot fuse a
  mirrored multiply+add into an FMA with different rounding, and
  :func:`check_value_neutral` keeps every value-changing flag out;
* ``minimum``/``maximum`` lower to helpers with NumPy's loop semantics
  (``(a < b || isnan(a)) ? a : b``) — *not* C ``fmin``/``fmax``, which
  silently drop NaNs;
* ``sign`` returns ``+0.0`` for both zeros and propagates NaN, matching
  ``np.sign``;
* constants are emitted as C99 hex-float literals, so the compiled
  value is the exact Python double the NumPy path multiplies by;
* the max reduction runs left to right from the first element, chunk
  after chunk in cell order — ``max`` is order-independent for the
  reduction NumPy performs (``np.max`` over the strip), and NaNs poison
  it in any order.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable, Dict, List

from repro.jit.ir import BOOL, KernelIR, Op

if TYPE_CHECKING:  # annotations only: repro.jit.kernels imports this module
    from repro.jit.kernels import KernelSpec

__all__ = [
    "CFLAGS",
    "REFERENCE_CFLAGS",
    "FORBIDDEN_CFLAGS",
    "check_value_neutral",
    "SWEEP_CROSS_LOOP",
    "DT_CELL_LOOP",
    "LOWERED_OPCODES",
    "generate_source",
    "sweep_access_map",
    "dt_access_map",
]

#: The one flag tuple every kernel is built with first — the *vector
#: build*.  Each flag is value-neutral: every lane performs the same
#: IEEE-754 operation on the same operands as the scalar code, so no
#: result bit can move (``tests/euler/test_kernel_single_source.py``
#: holds that lane by lane against :data:`REFERENCE_CFLAGS` and NumPy).
CFLAGS = (
    # The vectoriser with its real cost model (at -O2 gcc 12 only runs
    # the "very-cheap" one, which refuses these loops).  Optimisation
    # level alone never licenses a value-changing transformation.
    "-O3",
    # Lanes as wide as this host has.  Selects instructions, not
    # arithmetic: vaddpd/vmulpd/vdivpd/vsqrtpd are correctly rounded,
    # lane for lane what addsd/mulsd/divsd/sqrtsd compute.  The object
    # only runs on this CPU family, which is why repro.jit.compile names
    # cache entries by what "native" resolved to.
    "-march=native",
    # sqrt() need not write errno for a negative argument, so it becomes
    # one (vector) instruction instead of a libm call on a branch.  The
    # value returned — NaN — is the same; nothing here reads errno.
    "-fno-math-errno",
    # The compiler may evaluate an operation whose result is then not
    # used, ignoring that it could raise an FP exception flag: that is
    # what lets it turn the select/nmin/nmax/nsign ternaries into blends
    # ("control flow in loop" otherwise).  The SSA IR has already
    # evaluated both arms unconditionally, no trap is enabled, and no
    # flag is read; the selected value is the same either way.
    "-fno-trapping-math",
    "-fPIC",
    "-shared",
    # Load-bearing for bit-identity: without it the compiler may fuse
    # a*b+c into an FMA whose single rounding differs from NumPy's two
    # (-march=native makes FMA instructions available, so it matters
    # more than it did).
    "-ffp-contract=off",
)

#: The scalar build the vector build is differentially tested against,
#: and the one retry a compiler that rejects :data:`CFLAGS` gets
#: (:func:`repro.jit.compile.load_kernel`).  Nothing else selects it.
REFERENCE_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Flags that let a compiler change a result bit (reassociation,
#: reciprocals, dropped NaN/inf/signed-zero handling, contraction).
#: None may ever reach a kernel build: :func:`check_value_neutral` runs
#: on import here and again on every compiler command line.
FORBIDDEN_CFLAGS = (
    "-ffast-math",
    "-Ofast",
    "-funsafe-math-optimizations",
    "-fassociative-math",
    "-freciprocal-math",
    "-ffinite-math-only",
    "-fno-signed-zeros",
    "-ffp-contract=fast",
)


def check_value_neutral(flags) -> None:
    """Raise ``ValueError`` if ``flags`` holds a value-changing flag or
    leaves floating-point contraction on."""
    bad = sorted(set(flags) & set(FORBIDDEN_CFLAGS))
    if bad:
        raise ValueError(f"value-changing compiler flag(s) {bad} in {tuple(flags)}")
    if "-ffp-contract=off" not in flags:
        raise ValueError(f"-ffp-contract=off missing from {tuple(flags)}")


check_value_neutral(CFLAGS)
check_value_neutral(REFERENCE_CFLAGS)

#: The two loops the vector build is about, as emitted: the cross loop of
#: the sweep (``flux_point`` per face) and the cell loop of the dt pass
#: (``dt_point`` per cell of a chunk).  :mod:`repro.jit.compile` finds
#: these lines in a source to read the compiler's vectorisation report
#: for exactly them.
SWEEP_CROSS_LOOP = "        for (long i = 0; i < cross; ++i) {"
DT_CELL_LOOP = "            for (long c = 0; c < n; ++c) {  /* dt cells */"

#: Cells per chunk of the dt pass: ``dt_point`` fills a stack buffer of
#: this many eigenvalue sums (2 KiB), then the max runs over the buffer.
DT_CHUNK = 256

_PRELUDE = """\
#include <math.h>

/* NumPy ufunc loop semantics, not C fmin/fmax (those drop NaNs). */
static inline double nmin(double a, double b) {
    return (a < b) || isnan(a) ? a : b;
}
static inline double nmax(double a, double b) {
    return (a > b) || isnan(a) ? a : b;
}
/* np.sign: +-1 for nonzero, +0.0 for both zeros, NaN propagates. */
static inline double nsign(double x) {
    return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : (x == 0.0 ? 0.0 : x));
}
"""

_BINOPS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
_CMPOPS = {"eq": "==", "lt": "<", "gt": ">", "ge": ">=", "le": "<="}


def _const_literal(value: float) -> str:
    if value != value:  # pragma: no cover - emitters never emit NaN consts
        raise ValueError("NaN constant in kernel IR")
    return f"{float(value).hex()} /* {value!r} */"


#: One C expression per opcode.  This table is the single source of
#: truth for what the backend can lower; the drift-guard test asserts
#: its key set stays in lockstep with :data:`repro.jit.ir.OPCODES` and
#: :data:`repro.analysis.deps.OPCODE_EFFECTS`.
_LOWERERS: Dict[str, Callable[[Op], str]] = {
    "const": lambda op: _const_literal(op.payload),
    "param": lambda op: str(op.payload),
    "neg": lambda op: f"-{op.args[0]}",
    "abs": lambda op: f"fabs({op.args[0]})",
    "sqrt": lambda op: f"sqrt({op.args[0]})",
    "sign": lambda op: f"nsign({op.args[0]})",
    "minimum": lambda op: f"nmin({op.args[0]}, {op.args[1]})",
    "maximum": lambda op: f"nmax({op.args[0]}, {op.args[1]})",
    "and_": lambda op: f"{op.args[0]} && {op.args[1]}",
    "select": lambda op: f"{op.args[0]} ? {op.args[1]} : {op.args[2]}",
}
for _name, _symbol in _BINOPS.items():
    _LOWERERS[_name] = (
        lambda op, s=_symbol: f"{op.args[0]} {s} {op.args[1]}"
    )
for _name, _symbol in _CMPOPS.items():
    _LOWERERS[_name] = (
        lambda op, s=_symbol: f"{op.args[0]} {s} {op.args[1]}"
    )
del _name, _symbol

#: The opcodes this backend can emit C for (drift-guard contract).
LOWERED_OPCODES = frozenset(_LOWERERS)


def _lower_op(op) -> str:
    """One SSA op as one C declaration."""
    ctype = "int" if op.dtype == BOOL else "double"
    lowerer = _LOWERERS.get(op.opcode)
    if lowerer is None:  # pragma: no cover - verify_kernel rejects these
        raise ValueError(f"cannot lower opcode {op.opcode!r}")
    return f"    const {ctype} {op.name} = {lowerer(op)};"


def _point_function(
    ir: KernelIR, fn_name: str, stores: Dict[str, str], tail_params: str
) -> List[str]:
    """The straight-line point function for one IR kernel.

    ``stores`` maps output labels to C lvalues; ``tail_params`` are the
    output-pointer parameters appended to the scalar inputs.
    """
    scalars = ", ".join(f"double {c_name}" for c_name, _ in ir.params)
    lines = [f"static void {fn_name}({scalars}, {tail_params})", "{"]
    for op in ir.ops:
        lines.append(_lower_op(op))
    for label, value in ir.outputs:
        lines.append(f"    {stores[label]} = {value};")
    lines.append("}")
    return lines


def sweep_access_map(spec: KernelSpec, flux_ir: KernelIR):
    """The machine-readable access map of the sweep kernel.

    Derived from the same geometry :func:`generate_source` emits — the
    face loop ``j in [0, cells]`` reading the ``2 * ghost_cells``
    padded stencil rows ``j + k``, writing output row ``j - 1`` for
    ``j >= 1``, with the two rolling flux-row buffers in strip-private
    scratch.  Rows are the unit (one row = ``cross * nfields``
    doubles), so the map is independent of the cross extent.
    """
    from repro.analysis import deps

    cells = deps.LinExpr.var("cells")
    j = deps.LinExpr.var("j")
    zero = deps.LinExpr.of(0)
    stencil = 2 * spec.ghost_cells
    accesses = [
        deps.Access(
            "padded", "read", j + k, "j", zero, cells + 1, scope="shared"
        )
        for k in range(stencil)
    ]
    # The rolling buffers: every iteration writes one of two scratch
    # rows and reads the other back for the difference.  The rotation
    # is not affine in j, but both rows stay inside [0, 2) and the
    # buffer is strip-private, which is all the prover needs.
    for row in range(2):
        accesses.append(
            deps.Access(
                "scratch",
                "write",
                deps.LinExpr.of(row),
                "j",
                zero,
                cells + 1,
                scope="strip",
            )
        )
        accesses.append(
            deps.Access(
                "scratch",
                "read",
                deps.LinExpr.of(row),
                "j",
                zero,
                cells + 1,
                scope="strip",
            )
        )
    accesses.append(
        deps.Access(
            "out",
            "write",
            j - 1,
            "j",
            deps.LinExpr.of(1),
            cells + 1,
            scope="shared",
        )
    )
    return deps.AccessMap(
        kernel=f"sweep_{spec.symbol()}",
        accesses=tuple(accesses),
        extents={
            "padded": cells + stencil,
            "out": cells,
            "scratch": deps.LinExpr.of(2),
        },
        opcodes=frozenset(op.opcode for op in flux_ir.ops),
        strip_bases={"padded": "start", "out": "start", "scratch": "zero"},
    )


def dt_access_map(spec: KernelSpec, dt_ir: KernelIR):
    """The access map of the fused convert+GetDT kernel.

    Groups are the unit: iteration ``g`` reads group ``g`` of ``u``,
    writes group ``g`` of ``prim`` and entry ``g`` of ``group_max`` —
    trivially injective, so the per-strip dt dispatch needs no further
    geometry.  The chunk buffer of eigenvalue sums (``evbuf``,
    :data:`DT_CHUNK` doubles) is on the C function's own stack, private
    to each call, so it is no access of this map.
    """
    from repro.analysis import deps

    groups = deps.LinExpr.var("groups")
    g = deps.LinExpr.var("g")
    zero = deps.LinExpr.of(0)
    accesses = (
        deps.Access("u", "read", g, "g", zero, groups, scope="shared"),
        deps.Access("prim", "write", g, "g", zero, groups, scope="shared"),
        deps.Access(
            "group_max", "write", g, "g", zero, groups, scope="shared"
        ),
    )
    return deps.AccessMap(
        kernel=f"dt_{spec.symbol()}",
        accesses=accesses,
        extents={"u": groups, "prim": groups, "group_max": groups},
        opcodes=frozenset(op.opcode for op in dt_ir.ops),
        strip_bases={"u": "start", "prim": "start", "group_max": "start"},
    )


def generate_source(
    spec: KernelSpec, flux_ir: KernelIR, dt_ir: KernelIR
) -> str:
    """The complete C translation unit for one specialization.

    The header embeds the kernels' access maps (JSON) so the cached
    ``.c`` alongside the shared object is self-describing: the affine
    footprint the dependence prover certifies travels with the code it
    certifies.
    """
    nfields = spec.nfields
    stencil = 2 * spec.ghost_cells
    access_maps = json.dumps(
        {
            "sweep": sweep_access_map(spec, flux_ir).to_dict(),
            "dt": dt_access_map(spec, dt_ir).to_dict(),
        },
        sort_keys=True,
    )
    lines: List[str] = [
        f"/* repro.jit specialization: {spec.label()} */",
        f"/* access-map: {access_maps} */",
        _PRELUDE,
    ]

    flux_stores = {f"flux{f}": f"flux[{f}]" for f in range(nfields)}
    lines += _point_function(
        flux_ir, "flux_point", flux_stores, "double* restrict flux"
    )

    # Strip sweep: faces j = 0..cells over padded rows (cells + 2 ng,
    # cross, F); out receives the cells difference rows.  Two rolling
    # flux-row buffers live in caller scratch (2 * cross * F doubles).
    face_args = ", ".join(
        f"padded[(((j + {k}) * cross) + i) * {nfields} + {f}]"
        for k in range(stencil)
        for f in range(nfields)
    )
    lines += [
        "",
        "void repro_jit_sweep(const double* restrict padded,",
        "                     double* restrict out,",
        "                     double* restrict scratch,",
        "                     long cells, long cross,",
        "                     double gamma, double dx)",
        "{",
        f"    double* fprev = scratch;",
        f"    double* fcur = scratch + cross * {nfields};",
        "    for (long j = 0; j <= cells; ++j) {",
        SWEEP_CROSS_LOOP,
        f"            flux_point({face_args}, gamma, fcur + i * {nfields});",
        "        }",
        "        if (j > 0) {",
        f"            double* target = out + (j - 1) * cross * {nfields};",
        f"            for (long m = 0; m < cross * {nfields}; ++m) {{",
        "                double d = fcur[m] - fprev[m];",
        "                d = -d;",
        "                d = d / dx;",
        "                target[m] = d;",
        "            }",
        "        }",
        "        double* rotate = fprev; fprev = fcur; fcur = rotate;",
        "    }",
        "}",
    ]

    dt_stores = {f"prim{f}": f"prim[{f}]" for f in range(nfields)}
    dt_stores["ev"] = "*ev"
    lines.append("")
    lines += _point_function(
        dt_ir, "dt_point", dt_stores, "double* restrict prim, double* restrict ev"
    )

    spacing_params = ", ".join(f"double sp{axis}" for axis in range(spec.ndim))
    cell_args = ", ".join(
        f"uchunk[c * {nfields} + {f}]" for f in range(nfields)
    )
    spacing_args = ", ".join(f"sp{axis}" for axis in range(spec.ndim))
    lines += [
        "",
        "void repro_jit_dt(const double* restrict u,",
        "                  double* restrict prim,",
        "                  double* restrict group_max,",
        "                  long groups, long cells_per_group,",
        f"                  double gamma, {spacing_params})",
        "{",
        f"    double evbuf[{DT_CHUNK}];",
        "    for (long g = 0; g < groups; ++g) {",
        f"        const double* ubase = u + g * cells_per_group * {nfields};",
        f"        double* pbase = prim + g * cells_per_group * {nfields};",
        "        double m = 0.0;",
        f"        for (long c0 = 0; c0 < cells_per_group; c0 += {DT_CHUNK}) {{",
        "            const long rest = cells_per_group - c0;",
        f"            const long n = rest < {DT_CHUNK} ? rest : {DT_CHUNK};",
        f"            const double* uchunk = ubase + c0 * {nfields};",
        f"            double* pchunk = pbase + c0 * {nfields};",
        DT_CELL_LOOP,
        f"                dt_point({cell_args}, gamma, {spacing_args},",
        f"                         pchunk + c * {nfields}, evbuf + c);",
        "            }",
        "            for (long c = 0; c < n; ++c) {",
        "                m = c0 + c == 0 ? evbuf[c] : nmax(m, evbuf[c]);",
        "            }",
        "        }",
        "        group_max[g] = m;",
        "    }",
        "}",
    ]
    return "\n".join(lines) + "\n"
