"""Seeded-bug tests for the affine dependence prover (DEP001-004).

The prover licenses the threaded JIT strip dispatch, so every
diagnostic code gets a test that *plants* the bug it exists to catch:
a shrunken ghost width (DEP001), an overlapping strip plan and a
non-injective write (DEP002), a cross-strip read-after-write (DEP003),
and non-affine/unknown-effect kernels (DEP004).  The drift guards pin
the three per-opcode tables (IR signatures, codegen lowerers, effect
annotations) to one another so adding an opcode to one but not the
others fails here, not in production.
"""

import pytest

from repro.analysis import deps
from repro.analysis.deps import Access, AccessMap, LinExpr, nonneg
from repro.analysis.diag import Severity
from repro.analysis.jit_verify import verify_kernel
from repro.euler.solver import SolverConfig
from repro.jit import codegen
from repro.jit.ir import IRBuilder, OPCODES
from repro.jit.kernels import build_dt_ir, build_flux_ir, spec_from_config


def _spec(reconstruction="weno3", riemann="hllc", ndim=2):
    config = SolverConfig(
        reconstruction=reconstruction, riemann=riemann, variables="primitive"
    )
    return spec_from_config(config, ndim)


def _sweep_map(spec):
    return codegen.sweep_access_map(spec, build_flux_ir(spec))


# --------------------------------------------------------------------------
# LinExpr / nonneg
# --------------------------------------------------------------------------


class TestLinExpr:
    def test_arithmetic_normalises(self):
        n = LinExpr.var("n")
        expr = (n * 2 + 3) - (n + 1)
        assert expr == LinExpr.var("n") + 2
        assert (n - n) == LinExpr.of(0)
        assert (-n).coef("n") == -1

    def test_subst_and_evaluate(self):
        expr = LinExpr.var("j") * 2 + LinExpr.var("cells") - 1
        bound = expr.subst("j", LinExpr.var("cells"))
        assert bound == LinExpr.var("cells") * 3 - 1
        assert bound.evaluate({"cells": 4}) == 11
        assert bound.evaluate({}) is None

    def test_str_is_readable(self):
        assert str(LinExpr.var("n") * 2 - 1) == "2*n - 1"
        assert str(LinExpr.of(0)) == "0"

    def test_nonneg_tri_state(self):
        n, m = LinExpr.var("n"), LinExpr.var("m")
        assert nonneg(LinExpr.of(3)) is True
        assert nonneg(LinExpr.of(-1)) is False
        assert nonneg(n) is True
        assert nonneg(n + 5) is True
        assert nonneg(n - 1) is None  # n = 0 vs n = 5
        assert nonneg(-n - 1) is False
        assert nonneg(-n) is None  # zero at n = 0, negative after
        assert nonneg(n - m) is None


class TestBoxRelation:
    def test_adjacent_symbolic_halves_disjoint(self):
        n = LinExpr.var("n")
        zero = LinExpr.of(0)
        one = ((zero,), (n,))
        two = ((n,), (n * 2,))
        assert deps.box_relation(one, two) == ("disjoint", None)

    def test_overlap_names_a_witness(self):
        n = LinExpr.var("n")
        zero = LinExpr.of(0)
        one = ((zero,), (n + 1,))
        two = ((n,), (n * 2,))
        verdict, witness = deps.box_relation(one, two)
        assert verdict == "overlap"
        assert witness["n"] >= 1

    def test_provably_empty_box_is_disjoint(self):
        n = LinExpr.var("n")
        empty = ((n,), (n,))
        other = ((LinExpr.of(0),), (n * 2,))
        assert deps.box_relation(empty, other) == ("disjoint", None)

    def test_incomparable_symbols_unknown(self):
        n, m = LinExpr.var("n"), LinExpr.var("m")
        one = ((LinExpr.of(0),), (n,))
        two = ((m,), (m + n,))
        assert deps.box_relation(one, two) == ("unknown", None)


# --------------------------------------------------------------------------
# drift guards: OPCODES x lowerers x effects
# --------------------------------------------------------------------------


def _kernel_using_all_opcodes():
    b = IRBuilder("all_ops")
    x = b.param("x")
    y = b.param("y")
    values = [
        b.const(2.5),
        b.add(x, y),
        b.sub(x, y),
        b.mul(x, y),
        b.div(x, y),
        b.neg(x),
        b.abs_(x),
        b.sqrt(x),
        b.sign(x),
        b.minimum(x, y),
        b.maximum(x, y),
    ]
    mask = b.and_(b.eq(x, y), b.lt(x, y))
    for compare in (b.gt(x, y), b.ge(x, y), b.le(x, y)):
        mask = b.and_(mask, compare)
    values.append(b.select(mask, x, y))
    total = values[0]
    for value in values[1:]:
        total = b.add(total, value)
    b.output("flux0", total)
    return b.finish()


class TestOpcodeDriftGuard:
    def test_tables_in_lockstep(self):
        """One opcode set, three tables: IR signatures (the jit_verify
        rules), codegen lowerers, and the prover's effect annotations.
        A new opcode must land in all three or this fails by name."""
        assert set(codegen.LOWERED_OPCODES) == set(OPCODES)
        assert set(deps.OPCODE_EFFECTS) == set(OPCODES)

    def test_every_opcode_verifies_lowers_and_has_effects(self):
        ir = _kernel_using_all_opcodes()
        used = {op.opcode for op in ir.ops}
        assert used == set(OPCODES), (
            "the drift-guard kernel no longer exercises every opcode; "
            f"missing: {sorted(set(OPCODES) - used)}"
        )
        verify_kernel(ir, "drift/guard")  # raises on any finding
        for op in ir.ops:
            lowered = codegen._lower_op(op)
            assert op.name in lowered
        assert all(
            deps.OPCODE_EFFECTS[op.opcode] == "pure" for op in ir.ops
        )

    def test_real_kernels_use_only_known_effects(self):
        for spec in (_spec("pc"), _spec("weno3"), _spec("tvd2")):
            amap = _sweep_map(spec)
            assert all(
                deps.OPCODE_EFFECTS.get(op) == "pure" for op in amap.opcodes
            )


# --------------------------------------------------------------------------
# footprint proofs (DEP001 / DEP004)
# --------------------------------------------------------------------------


class TestFootprint:
    @pytest.mark.parametrize(
        "reconstruction", ("pc", "tvd2", "tvd3", "weno3")
    )
    def test_declared_ghost_width_passes(self, reconstruction):
        spec = _spec(reconstruction)
        engine = deps.prove_footprint(_sweep_map(spec), spec.ghost_cells)
        assert engine.codes() == []

    @pytest.mark.parametrize("reconstruction", ("tvd2", "weno3"))
    def test_shrunken_ghost_width_is_dep001(self, reconstruction):
        """The seeded bug the footprint check exists for: pretend the
        engine pads one ghost row fewer than the stencil needs."""
        spec = _spec(reconstruction)
        engine = deps.prove_footprint(
            _sweep_map(spec), spec.ghost_cells - 1
        )
        assert "DEP001" in engine.codes()
        assert engine.has_errors()

    def test_dt_map_passes(self):
        spec = _spec("weno3")
        engine = deps.prove_footprint(
            codegen.dt_access_map(spec, build_dt_ir(spec))
        )
        assert engine.codes() == []

    def test_non_affine_row_is_dep004(self):
        cells = LinExpr.var("cells")
        amap = AccessMap(
            kernel="weird",
            accesses=(
                Access("a", "read", None, "j", LinExpr.of(0), cells),
            ),
            extents={"a": cells},
            opcodes=frozenset({"add"}),
        )
        engine = deps.prove_footprint(amap)
        assert engine.codes() == ["DEP004"]
        assert not engine.has_errors()  # warning: must serialize, not fail

    def test_unknown_opcode_is_dep004(self):
        cells = LinExpr.var("cells")
        amap = AccessMap(
            kernel="fancy",
            accesses=(
                Access(
                    "a", "read", LinExpr.var("j"), "j", LinExpr.of(0), cells
                ),
            ),
            extents={"a": cells},
            opcodes=frozenset({"add", "fma"}),
        )
        codes = deps.prove_footprint(amap).codes()
        assert codes.count("DEP004") >= 1


# --------------------------------------------------------------------------
# strip proofs (DEP002 / DEP003, licensing)
# --------------------------------------------------------------------------


class TestStripProofs:
    def test_disjoint_plan_is_licensed(self):
        spec = _spec("weno3")
        proof = deps.prove_strips(
            _sweep_map(spec), ((0, 8), (8, 16), (16, 21)), spec.ghost_cells
        )
        assert proof.licensed
        assert proof.reason is None
        assert proof.diagnostics == ()

    def test_overlapping_plan_is_dep002(self):
        """The seeded bug: two strips both own output row 8."""
        spec = _spec("weno3")
        proof = deps.prove_strips(
            _sweep_map(spec), ((0, 9), (8, 16)), spec.ghost_cells
        )
        assert not proof.licensed
        assert proof.reason.startswith("DEP002")
        assert any(d.code == "DEP002" for d in proof.diagnostics)

    def test_constant_write_row_is_dep002(self):
        """A write that ignores the loop variable races with itself."""
        cells = LinExpr.var("cells")
        amap = AccessMap(
            kernel="broadcast",
            accesses=(
                Access(
                    "out", "write", LinExpr.of(0), "j", LinExpr.of(0), cells
                ),
            ),
            extents={"out": cells},
            opcodes=frozenset({"add"}),
        )
        proof = deps.prove_strips(amap, ((0, 4), (4, 8)))
        assert not proof.licensed
        assert any(d.code == "DEP002" for d in proof.diagnostics)

    def test_cross_strip_read_after_write_is_dep003(self):
        """A kernel whose reads reach one row past its own writes sees
        the neighbouring strip's output: proven, not threadable."""
        cells = LinExpr.var("cells")
        j = LinExpr.var("j")
        amap = AccessMap(
            kernel="leaky",
            accesses=(
                Access("buf", "write", j, "j", LinExpr.of(0), cells),
                Access("buf", "read", j + 1, "j", LinExpr.of(0), cells),
            ),
            extents={"buf": cells + 1},
            opcodes=frozenset({"add"}),
        )
        proof = deps.prove_strips(amap, ((0, 4), (4, 8)))
        assert not proof.licensed
        assert any(d.code == "DEP003" for d in proof.diagnostics)

    def test_strip_scope_scratch_is_exempt(self):
        """Every strip writes scratch rows 0 and 1 — fine, because the
        dispatcher hands each strip a private buffer (scope='strip')."""
        spec = _spec("pc")
        amap = _sweep_map(spec)
        assert any(a.scope == "strip" for a in amap.accesses)
        proof = deps.prove_strips(amap, ((0, 4), (4, 8)), spec.ghost_cells)
        assert proof.licensed

    def test_reason_is_counted_string(self):
        spec = _spec("weno3")
        proof = deps.prove_strips(
            _sweep_map(spec), ((0, 8), (4, 12)), spec.ghost_cells
        )
        assert not proof.licensed
        code, _, rest = proof.reason.partition(":")
        assert code in ("DEP001", "DEP002", "DEP003", "DEP004")
        assert rest.strip()


# --------------------------------------------------------------------------
# access maps travel with the generated C
# --------------------------------------------------------------------------


class TestAccessMapEmission:
    def test_generated_source_embeds_access_map(self):
        spec = _spec("weno3")
        source = codegen.generate_source(
            spec, build_flux_ir(spec), build_dt_ir(spec)
        )
        assert "access-map:" in source
        assert '"sweep"' in source and '"dt"' in source

    def test_map_is_json_round_trippable(self):
        import json

        spec = _spec("tvd2")
        payload = json.dumps(_sweep_map(spec).to_dict())
        decoded = json.loads(payload)
        assert decoded["kernel"].startswith("sweep_")
        assert decoded["strip_bases"]["scratch"] == "zero"
        assert any(a["mode"] == "write" for a in decoded["accesses"])
