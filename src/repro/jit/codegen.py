"""Lowering verified kernel IR to C99.

One translation unit per specialization, containing:

* ``flux_point`` — the straight-line per-face flux function (the whole
  ``reconstruct -> riemann`` chain for one face), inlined by the C
  compiler into ``flux_row``, one face row of it (the vectorised loop);
* ``difference_point``/``accumulate_point`` — the flux difference IR
  (:func:`repro.jit.kernels.build_difference_ir`, the program the NumPy
  executor runs): ``-(fc - fp) / dx``, written or added to ``t``;
* ``repro_jit_sweep`` — the strip sweep: for each face row, compute
  fluxes into one of two rolling row buffers (caller-provided scratch,
  no allocation), then ``difference_point`` against the previous row;
* ``dt_point`` + ``repro_jit_dt`` — the fused per-cell
  convert+eigenvalue GetDT pass with a per-group NaN-propagating max
  reduction (group = one strip for the solo engine, one member for the
  batch engine), in chunks of :data:`DT_CHUNK` cells: ``dt_point`` fills
  a stack buffer of eigenvalue sums (a loop with no carried value),
  then the max runs over the buffer;
* ``repro_jit_stage`` — the *stage program*: one Runge-Kutta stage of a
  :class:`~repro.jit.plan.StagePlan` from a ``repro_stage`` struct
  (:data:`STAGE_FIELDS`).  ``convert_point`` + admissibility flags over
  the state, then per sweep axis and strip a strip-private *window*
  (the strip's rows of the primitive state in sweep layout plus
  ``ghost_cells`` either side, ghost layers from the fill-record table)
  through the same ``flux_row`` skeleton, difference rows written into
  ``k`` (axis 0, ``difference_point``) or added transposed with the
  velocity swap undone (axis 1, ``accumulate_point``), then the
  stage's ``combine_*`` point function over ``u``, ``v``, ``k``.  The
  strip loop is inside C;
* ``repro_jit_step`` — the *step program*: an array of ``repro_stage``
  structs, one per stage of the RK schedule, run in order by
  ``repro_jit_stage`` with every phase.  It stops at the first stage
  whose admissibility flags are nonzero and names that stage; a serial
  step is one crossing (plus the dt pass).

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
    "STAGE_FIELDS",
    "STAGE_PHASES",
    "FILL_RECORD_LONGS",
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
SWEEP_CROSS_LOOP = "    for (long i = 0; i < cross; ++i) {"
DT_CELL_LOOP = "            for (long c = 0; c < n; ++c) {  /* dt cells */"

#: Cells per chunk of the dt pass: ``dt_point`` fills a stack buffer of
#: this many eigenvalue sums (2 KiB), then the max runs over the buffer.
DT_CHUNK = 256

_PRELUDE = """\
#define _POSIX_C_SOURCE 199309L
#include <float.h>
#include <math.h>
#include <time.h>

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
    from repro.jit.kernels import build_difference_ir

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
        opcodes=frozenset(
            op.opcode for ir in (flux_ir, build_difference_ir("write")) for op in ir.ops
        ),
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


#: The plan of one engine's stage as the C entry point sees it — field
#: names and C types of ``repro_stage``, in order.  The generated struct
#: and the :class:`ctypes.Structure` :mod:`repro.jit.backend` fills are
#: both made from this table.  Geometry and tables are constant per
#: engine; the last block is rebound before every stage.
STAGE_FIELDS = (
    ("members", "long"),
    ("nx", "long"),
    ("ny", "long"),  # 1 in 1-D
    ("ng", "long"),
    # per sweep axis: strips as (start, stop) pairs, fill records as
    # FILL_RECORD_LONGS longs each, in application order
    ("nstrips0", "long"),
    ("strips0", "const long*"),
    ("nstrips1", "long"),
    ("strips1", "const long*"),
    ("nfills0", "long"),
    ("fills0", "const long*"),
    ("nfills1", "long"),
    ("fills1", "const long*"),
    ("fill_states", "const double*"),  # F doubles per constant record
    ("gamma", "double"),
    ("dx", "double"),
    ("dy", "double"),
    ("prim", "double*"),  # (members, nx, ny, F), whole grid
    ("scratch", "double*"),  # one window + two flux rows per worker
    ("scratch_stride", "long"),
    ("window_doubles", "long"),
    # -- per stage --
    ("v", "const double*"),  # the state L is evaluated at
    ("u", "const double*"),
    ("k", "double*"),  # L(v)
    ("out", "double*"),  # the combine's target (may be u)
    ("dt", "const double*"),  # one per member
    ("convert", "long"),  # 0: prim is fresh (the dt pass wrote it), flags only
    ("combine", "long"),  # 0: none; else position in rk.COMBINES + 1
)

#: Longs per fill record: member, side, start, stop, kind (position in
#: ``boundary.FILL_KINDS``), index of its state in ``fill_states``.
FILL_RECORD_LONGS = 6

#: Phase bits of ``repro_jit_stage``'s ``phases`` argument, and the order
#: of its ``seconds`` output.
STAGE_PHASES = {"convert": 1, "sweep0": 2, "sweep1": 4, "combine": 8}
_ALL_PHASES = sum(STAGE_PHASES.values())

#: Cells per chunk of the stage's convert phase (convert, then flag).
CONVERT_CHUNK = 256


def _sweep_kernel(nfields: int, stencil: int) -> List[str]:
    """The flux difference point functions, ``flux_row`` (one face row
    of ``flux_point``, the vectorised loop) and the standalone strip
    sweep built on them."""
    from repro.jit.kernels import build_difference_ir  # imports this module

    lines: List[str] = []
    for kind, name in (("write", "difference_point"), ("accumulate", "accumulate_point")):
        lines.append("")
        lines += _point_function(build_difference_ir(kind), name, {"out": "*out"}, "double* out")
    face_args = ", ".join(
        f"rows[(({k} * cross) + i) * {nfields} + {f}]"
        for k in range(stencil)
        for f in range(nfields)
    )
    return lines + [
        "",
        "/* Fluxes at one face row: rows points at its first stencil row. */",
        "static void flux_row(const double* restrict rows, double* restrict fcur,",
        "                     long cross, double gamma)",
        "{",
        SWEEP_CROSS_LOOP,
        f"        flux_point({face_args}, gamma, fcur + i * {nfields});",
        "    }",
        "}",
        "",
        "void repro_jit_sweep(const double* restrict padded,",
        "                     double* restrict out,",
        "                     double* restrict scratch,",
        "                     long cells, long cross,",
        "                     double gamma, double dx)",
        "{",
        "    double* fprev = scratch;",
        f"    double* fcur = scratch + cross * {nfields};",
        "    for (long j = 0; j <= cells; ++j) {",
        f"        flux_row(padded + j * cross * {nfields}, fcur, cross, gamma);",
        "        if (j > 0) {",
        f"            double* target = out + (j - 1) * cross * {nfields};",
        f"            for (long m = 0; m < cross * {nfields}; ++m) {{",
        "                difference_point(fcur[m], fprev[m], dx, target + m);",
        "            }",
        "        }",
        "        double* rotate = fprev; fprev = fcur; fcur = rotate;",
        "    }",
        "}",
    ]


def _dt_kernel(nfields: int, ndim: int) -> List[str]:
    spacing_params = ", ".join(f"double sp{axis}" for axis in range(ndim))
    cell_args = ", ".join(f"uchunk[c * {nfields} + {f}]" for f in range(nfields))
    spacing_args = ", ".join(f"sp{axis}" for axis in range(ndim))
    return [
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


def _stage_program(spec: "KernelSpec") -> List[str]:
    """``repro_jit_stage``: the phases of :mod:`repro.jit.plan` in C.

    One call runs the strips ``worker, worker + workers, ...`` of every
    phase in ``phases`` (``repro_jit_step`` asks for all phases as
    worker 0 of 1, stage after stage; a team asks phase by phase, the
    round's end being the barrier).  It returns the admissibility flags
    of the primitive rows it converted — bit 0 non-finite, bit 1 density
    and bit 2 pressure below the floor; the flags only *detect*, and a
    nonzero return skips the remaining phases — and adds the seconds
    spent per phase to ``seconds`` (convert, window fill, sweep, combine).
    """
    from repro.euler.boundary import FILL_KINDS
    from repro.euler.constants import FLOOR
    from repro.euler.rk import COMBINES
    from repro.jit.kernels import build_combine_ir, build_standalone_ir

    F = spec.nfields
    floor = _const_literal(FLOOR)
    mirror, constant = FILL_KINDS.index("mirror"), FILL_KINDS.index("constant")
    lines: List[str] = [""]
    lines += _point_function(
        build_standalone_ir("convert", "primitive", F),
        "convert_point",
        {f"out{f}": f"prim[{f}]" for f in range(F)},
        "double* restrict prim",
    )
    for kind in COMBINES:
        lines.append("")
        lines += _point_function(
            build_combine_ir(kind), f"combine_{kind}", {"out": "*out"}, "double* out"
        )
    fields = "\n".join(f"    {ctype} {name};" for name, ctype in STAGE_FIELDS)
    cell_args = ", ".join(f"qc[c * {F} + {f}]" for f in range(F))
    finite = " && ".join(f"fabs(cell[{f}]) <= DBL_MAX" for f in range(F))
    swapped = [0, 2, 1, 3]  # sweep layout on axis 1: u, v exchanged
    lines += [
        "",
        f"typedef struct {{\n{fields}\n}} repro_stage;",
        "",
        "static double now(void)",
        "{",
        "    struct timespec t;",
        "    clock_gettime(CLOCK_MONOTONIC, &t);",
        "    return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;",
        "}",
        "",
        "/* Convert n cells (or take prim as it is) and flag what state.validate_state",
        "   would refuse; chunked so the flags read cache-resident rows. */",
        "static long convert_cells(const double* restrict q, double* restrict prim,",
        "                          long n, double gamma, long convert)",
        "{",
        "    long nonfinite = 0, thin = 0, cold = 0;",
        f"    for (long c0 = 0; c0 < n; c0 += {CONVERT_CHUNK}) {{",
        f"        const long m = n - c0 < {CONVERT_CHUNK} ? n - c0 : {CONVERT_CHUNK};",
        "        if (convert) {",
        f"            const double* qc = q + c0 * {F};",
        f"            double* pc = prim + c0 * {F};",
        "            for (long c = 0; c < m; ++c) {",
        f"                convert_point({cell_args}, gamma, pc + c * {F});",
        "            }",
        "        }",
        "        for (long c = 0; c < m; ++c) {",
        f"            const double* cell = prim + (c0 + c) * {F};",
        f"            nonfinite |= !({finite});",
        f"            thin |= cell[0] < {floor};",
        f"            cold |= cell[{F - 1}] < {floor};",
        "        }",
        "    }",
        "    return nonfinite | (thin << 1) | (cold << 2);",
        "}",
    ]

    # The window of one sweep strip: rows [s - ng, e + ng) of the primitive
    # state in sweep layout (on axis 1 the grid transposed, u and v
    # exchanged), ghost layers from the fill table.
    copy_cell = " ".join(
        f"dst[{f}] = src[{'i1' if f == 1 else 'i2' if f == 2 else f}];" for f in range(F)
    )
    lines += [
        "",
        "static void fill_window(const repro_stage* st, double* restrict window,",
        "                        long s, long e, long axis)",
        "{",
        "    const long B = st->members, ng = st->ng, rows = e - s + 2 * ng;",
        f"    const long inner = st->ny * {F}, member = st->nx * inner;",
        "    const long n = axis ? st->ny : st->nx, edge = axis ? st->nx : st->ny;",
        "    /* primitive strides along the sweep axis and along the edge */",
        f"    const long along = axis ? {F} : inner, across = axis ? inner : {F};",
        "    const long i1 = axis ? 2 : 1, i2 = axis ? 1 : 2;",
        "    const long nfills = axis ? st->nfills1 : st->nfills0;",
        "    const long* fills = axis ? st->fills1 : st->fills0;",
        "    for (long w = 0; w < rows; ++w) {",
        "        const long g = s + w - ng;",
        "        if (g < 0 || g >= n) continue;",
        "        for (long m = 0; m < B; ++m) {",
        "            const double* from = st->prim + m * member + g * along;",
        f"            double* to = window + (w * B + m) * edge * {F};",
        "            for (long c = 0; c < edge; ++c) {",
        "                const double* src = from + c * across;",
        f"                double* dst = to + c * {F};",
        f"                {copy_cell}",
        "            }",
        "        }",
        "    }",
        "    for (long r = 0; r < nfills; ++r) {",
        f"        const long* rec = fills + r * {FILL_RECORD_LONGS};",
        "        const long m = rec[0], high = rec[1], kind = rec[4];",
        f"        const double* state = st->fill_states + rec[5] * {F};",
        "        for (long layer = 0; layer < ng; ++layer) {",
        "            const long w = (high ? n + 2 * ng - 1 - layer : layer) - s;",
        "            if (w < 0 || w >= rows) continue;",
        "            /* the primitive row a copy or a mirror layer takes */",
        f"            const long g = kind == {mirror}",
        "                ? (high ? n - ng + layer : ng - 1 - layer)",
        "                : (high ? n - 1 : 0);",
        "            const double* from = st->prim + m * member + g * along;",
        f"            double* to = window + (w * B + m) * edge * {F};",
        "            for (long c = rec[2]; c < rec[3]; ++c) {",
        "                const double* src = from + c * across;",
        f"                double* dst = to + c * {F};",
        f"                if (kind == {constant}) {{",
        "                    " + " ".join(f"dst[{f}] = state[{f}];" for f in range(F)),
        "                } else {",
        f"                    {copy_cell}",
        f"                    if (kind == {mirror}) dst[1] = -dst[1];",
        "                }",
        "            }",
        "        }",
        "    }",
        "}",
    ]

    def sweep_strip(axis: int) -> List[str]:
        """One strip's faces through ``flux_row``, difference rows into
        ``k``: written member by member (axis 0) or added transposed with
        the velocity swap undone (axis 1), one difference point per
        element."""
        if axis == 0:
            cross, spacing = "B * st->ny", "st->dx"
            emit = [
                "            for (long m = 0; m < B; ++m) {",
                "                double* restrict target = k + m * member + (s + j - 1) * inner;",
                "                const double* fc = fcur + m * inner;",
                "                const double* fp = fprev + m * inner;",
                "                for (long c = 0; c < inner; ++c) {",
                "                    difference_point(fc[c], fp[c], dx, target + c);",
                "                }",
                "            }",
            ]
        else:
            cross, spacing = "B * nx", "st->dy"
            emit = [
                "            for (long m = 0; m < B; ++m) {",
                "                for (long i = 0; i < nx; ++i) {",
                f"                    const double* fc = fcur + (m * nx + i) * {F};",
                f"                    const double* fp = fprev + (m * nx + i) * {F};",
                f"                    double* target = k + m * member + i * inner + (s + j - 1) * {F};",
            ]
            # every read before the first write: fc, fp may alias k for all C knows
            emit += [f"                    double sum[{F}];"] + [
                f"                    accumulate_point(target[{swapped[f]}], fc[{f}],"
                f" fp[{f}], dx, sum + {f});"
                for f in range(F)
            ]
            emit += [
                f"                    target[{swapped[f]}] = sum[{f}];" for f in range(F)
            ]
            emit += ["                }", "            }"]
        return [
            "",
            f"static void sweep_strip{axis}(const repro_stage* st, const double* restrict window,",
            "                         double* restrict flux_rows, long s, long e)",
            "{",
            "    const long B = st->members, nx = st->nx;",
            f"    const long inner = st->ny * {F}, member = nx * inner;",
            f"    const long cross = {cross};",
            "    double* k = st->k;",
            f"    const double dx = {spacing}, gamma = st->gamma;",
            "    double* fprev = flux_rows;",
            f"    double* fcur = flux_rows + cross * {F};",
            "    for (long j = 0; j <= e - s; ++j) {",
            f"        flux_row(window + j * cross * {F}, fcur, cross, gamma);",
            "        if (j > 0) {",
            *emit,
            "        }",
            "        double* rotate = fprev; fprev = fcur; fcur = rotate;",
            "    }",
            "}",
        ]

    for axis in range(spec.ndim):
        lines += sweep_strip(axis)

    # The combine's target is u itself in an order's last stage: element
    # e reads and writes index e only, so no dependence is carried across
    # iterations — which the pragmas say, since the pointers may alias.
    cases = []
    for position, kind in enumerate(COMBINES):
        cases += [
            f"    case {position + 1}:",
            "        #pragma GCC ivdep",
            "        #pragma clang loop vectorize(assume_safety)",
            "        for (long e = 0; e < n; ++e) "
            f"combine_{kind}(u[e], v[e], k[e], dt, out + e);",
            "        break;",
        ]
    lines += [
        "",
        "static void combine_cells(long kind, const double* u, const double* v,",
        "                          const double* k, double* out, double dt, long n)",
        "{",
        "    switch (kind) {",
        *cases,
        "    }",
        "}",
    ]

    def sweep_phase(axis: int) -> List[str]:
        bit = STAGE_PHASES[f"sweep{axis}"]
        return [
            f"    if (phases & {bit}) {{",
            f"        for (long t = worker; t < st->nstrips{axis}; t += workers) {{",
            f"            const long s = st->strips{axis}[2 * t], e = st->strips{axis}[2 * t + 1];",
            "            const double t0 = now();",
            f"            fill_window(st, window, s, e, {axis});",
            "            const double t1 = now();",
            f"            sweep_strip{axis}(st, window, flux_rows, s, e);",
            "            seconds[1] += t1 - t0;",
            "            seconds[2] += now() - t1;",
            "        }",
            "    }",
        ]

    lines += [
        "",
        "long repro_jit_stage(const repro_stage* st, long phases, long worker,",
        "                     long workers, double* seconds)",
        "{",
        f"    const long inner = st->ny * {F}, member = st->nx * inner;",
        "    double* window = st->scratch + worker * st->scratch_stride;",
        "    double* flux_rows = window + st->window_doubles;",
        "    long flags = 0;",
        f"    if (phases & {STAGE_PHASES['convert']}) {{",
        "        const double t0 = now();",
        "        for (long t = worker; t < st->nstrips0; t += workers) {",
        "            const long s = st->strips0[2 * t], e = st->strips0[2 * t + 1];",
        "            for (long m = 0; m < st->members; ++m) {",
        "                const long at = m * member + s * inner;",
        "                flags |= convert_cells(st->v + at, st->prim + at, (e - s) * st->ny,",
        "                                       st->gamma, st->convert);",
        "            }",
        "        }",
        "        seconds[0] += now() - t0;",
        "        if (flags) return flags;",
        "    }",
    ]
    for axis in range(spec.ndim):
        lines += sweep_phase(axis)
    lines += [
        f"    if ((phases & {STAGE_PHASES['combine']}) && st->combine) {{",
        "        const double t0 = now();",
        "        for (long t = worker; t < st->nstrips0; t += workers) {",
        "            const long s = st->strips0[2 * t], e = st->strips0[2 * t + 1];",
        "            for (long m = 0; m < st->members; ++m) {",
        "                const long at = m * member + s * inner;",
        "                combine_cells(st->combine, st->u + at, st->v + at, st->k + at,",
        "                              st->out + at, st->dt[m], (e - s) * inner);",
        "            }",
        "        }",
        "        seconds[3] += now() - t0;",
        "    }",
        "    return flags;",
        "}",
        "",
        "/* One Runge-Kutta step: the schedule's n stages in order, every phase,",
        "   serially.  Stops at the first stage whose conversion flags the state,",
        "   naming it in *flagged (n: every stage ran), and returns its flags. */",
        "long repro_jit_step(const repro_stage* stages, long n, double* seconds,",
        "                    long* flagged)",
        "{",
        "    for (long s = 0; s < n; ++s) {",
        f"        const long flags = repro_jit_stage(stages + s, {_ALL_PHASES}, 0, 1, seconds);",
        "        if (flags) {",
        "            *flagged = s;",
        "            return flags;",
        "        }",
        "    }",
        "    *flagged = n;",
        "    return 0;",
        "}",
    ]
    return lines


def generate_source(
    spec: KernelSpec, flux_ir: KernelIR, dt_ir: KernelIR
) -> str:
    """The complete C translation unit for one specialization: the flux
    and dt kernels of the IR pair and the stage program around them.

    The header embeds the kernels' and the stage phases' access maps
    (JSON) so the cached
    ``.c`` alongside the shared object is self-describing: the affine
    footprint the dependence prover certifies travels with the code it
    certifies.
    """
    from repro.jit.plan import phase_access_maps

    nfields = spec.nfields
    access_maps = json.dumps(
        {
            "sweep": sweep_access_map(spec, flux_ir).to_dict(),
            "dt": dt_access_map(spec, dt_ir).to_dict(),
            "stage": {
                name: amap.to_dict() for name, amap in phase_access_maps(spec, flux_ir)
            },
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
    lines += _sweep_kernel(nfields, 2 * spec.ghost_cells)

    dt_stores = {f"prim{f}": f"prim[{f}]" for f in range(nfields)}
    dt_stores["ev"] = "*ev"
    lines.append("")
    lines += _point_function(
        dt_ir, "dt_point", dt_stores, "double* restrict prim, double* restrict ev"
    )
    lines += _dt_kernel(nfields, spec.ndim)
    lines += _stage_program(spec)
    return "\n".join(lines) + "\n"
