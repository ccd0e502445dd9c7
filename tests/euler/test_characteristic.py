"""Local characteristic decomposition (the paper's reconstruction basis)."""

import numpy as np
import pytest

from repro.euler import state
from repro.euler.reconstruction import (
    characteristic,
    eigen_matrices,
    get_scheme,
    reconstruct_characteristic,
    reconstruct_component,
)
from repro.jit.ir import IRBuilder
from repro.jit.numpy_eval import NumpyProgram, field_views
from tests.conftest import random_primitive_1d, random_primitive_2d


class TestEigenMatrices:
    @pytest.mark.parametrize("nfields", [3, 4])
    def test_left_right_are_inverses(self, nfields, rng):
        if nfields == 3:
            left = random_primitive_1d(rng, 20)
            right = random_primitive_1d(rng, 20, seed_offset=1)
        else:
            left = random_primitive_2d(rng, 4, 5).reshape(20, 4)
            right = random_primitive_2d(rng, 4, 5, seed_offset=1).reshape(20, 4)
        L, R = eigen_matrices(left, right)
        identity = np.einsum("...ij,...jk->...ik", L, R)
        np.testing.assert_allclose(identity, np.broadcast_to(np.eye(nfields), identity.shape), atol=1e-12)

    def test_right_columns_are_jacobian_eigenvectors_1d(self):
        """A(U) r_k = lambda_k r_k for the Roe-averaged Jacobian."""
        w = np.array([[1.2, 0.35, 1.7]])
        _, R = eigen_matrices(w, w)
        # numerical Jacobian of the physical flux at w (conservative vars)
        u0 = state.conservative_from_primitive(w)[0]
        eps = 1e-7

        def flux_of(u_cons):
            prim = state.primitive_from_conservative(u_cons[None, :])
            return state.physical_flux(prim)[0]

        jacobian = np.empty((3, 3))
        base = flux_of(u0)
        for k in range(3):
            bumped = u0.copy()
            bumped[k] += eps
            jacobian[:, k] = (flux_of(bumped) - base) / eps

        from repro.euler import eos

        c = float(eos.sound_speed(w[0, 0], w[0, 2]))
        u = w[0, 1]
        eigenvalues = [u - c, u, u + c]
        for k, lam in enumerate(eigenvalues):
            r = R[0][:, k]
            np.testing.assert_allclose(jacobian @ r, lam * r, rtol=1e-5, atol=1e-5)


class TestCharacteristicReconstruction:
    def test_pc_is_basis_independent(self, rng):
        prim = random_primitive_1d(rng, 14)
        scheme = get_scheme("pc")
        char_l, char_r = reconstruct_characteristic(scheme, prim)
        comp_l, comp_r = reconstruct_component(scheme, prim, 1)
        np.testing.assert_allclose(char_l, comp_l)
        np.testing.assert_allclose(char_r, comp_r)

    @pytest.mark.parametrize("name", ["tvd2", "tvd3", "weno3"])
    def test_constant_state_reproduced(self, name):
        prim = np.tile(np.array([1.0, 0.3, 2.0]), (14, 1))
        scheme = get_scheme(name)
        left, right = reconstruct_characteristic(scheme, prim)
        np.testing.assert_allclose(left, np.broadcast_to(prim[0], left.shape), rtol=1e-12)
        np.testing.assert_allclose(right, np.broadcast_to(prim[0], right.shape), rtol=1e-12)

    @pytest.mark.parametrize("name", ["tvd2", "weno3"])
    def test_2d_sweep_layout(self, name, rng):
        prim = random_primitive_2d(rng, 14, 6)
        scheme = get_scheme(name)
        left, right = reconstruct_characteristic(scheme, prim)
        assert left.shape == (14 - 2 * scheme.ghost_cells + 1, 6, 4)
        assert np.all(left[..., 0] > 0) and np.all(left[..., -1] > 0)

    def test_produces_physical_states_across_strong_jump(self):
        prim = np.tile(np.array([1.0, 0.0, 1.0]), (16, 1))
        prim[8:] = [0.01, 0.0, 0.01]  # strong jump
        scheme = get_scheme("weno3")
        left, right = reconstruct_characteristic(scheme, prim)
        assert np.all(left[:, 0] > 0)
        assert np.all(left[:, 2] > 0)
        assert np.all(right[:, 0] > 0)
        assert np.all(right[:, 2] > 0)

    def test_smooth_profile_close_to_componentwise(self, rng):
        """On smooth data the basis barely matters."""
        x = np.linspace(0, 2 * np.pi, 30)
        prim = np.stack(
            [1.5 + 0.1 * np.sin(x), 0.1 * np.cos(x), 1.0 + 0.1 * np.sin(x)], axis=-1
        )
        scheme = get_scheme("tvd2")
        char_l, _ = reconstruct_characteristic(scheme, prim)
        comp_l, _ = reconstruct_component(scheme, prim, 2)
        np.testing.assert_allclose(char_l, comp_l, atol=5e-3)


class TestStatedOrder:
    """The mat-vec row sum is part of this codebase, not of the NumPy
    build: ``(p0 + p2) + (p1 + p3)``, three fields ``(p0 + p2) + p1``."""

    @staticmethod
    def _wide_range(rng, shape):
        return rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)

    @pytest.mark.parametrize("nfields", [3, 4])
    def test_project_sums_in_the_stated_order(self, nfields, rng):
        matrix = self._wide_range(rng, (40, nfields, nfields))
        vector = self._wide_range(rng, (40, nfields))
        projected = characteristic._project(matrix, vector)
        for face in range(40):
            for row in range(nfields):
                p = [
                    float(matrix[face, row, j]) * float(vector[face, j])
                    for j in range(nfields)
                ]
                tail = p[1] + p[3] if nfields == 4 else p[1]
                assert projected[face, row] == (p[0] + p[2]) + tail

    @pytest.mark.parametrize("nfields", [3, 4])
    def test_ir_matvec_is_project(self, nfields, rng):
        matrix = self._wide_range(rng, (40, nfields, nfields))
        vector = self._wide_range(rng, (40, nfields))
        b = IRBuilder("matvec")
        rows = [[b.param(f"m{i}{j}") for j in range(nfields)] for i in range(nfields)]
        values = [b.param(f"x{j}") for j in range(nfields)]
        for i, value in enumerate(characteristic._emit_matvec(b, rows, values)):
            b.output(f"out{i}", value)
        out = np.empty((40, nfields))
        NumpyProgram(b.finish()).run(
            [matrix[:, i, j] for i in range(nfields) for j in range(nfields)]
            + field_views(vector),
            field_views(out),
        )
        assert out.tobytes() == characteristic._project(matrix, vector).tobytes()

    @pytest.mark.parametrize("nfields", [3, 4])
    def test_ir_eigen_matrices_are_eigen_matrices(self, nfields, rng):
        """Entry by entry, literal ones and zeros included."""
        if nfields == 3:
            left = random_primitive_1d(rng, 30)
            right = random_primitive_1d(rng, 30, seed_offset=1)
        else:
            left = random_primitive_2d(rng, 5, 6).reshape(30, 4)
            right = random_primitive_2d(rng, 5, 6, seed_offset=1).reshape(30, 4)
        b = IRBuilder("eigen")
        l = [b.param(f"l{f}") for f in range(nfields)]
        r = [b.param(f"r{f}") for f in range(nfields)]
        gamma = b.param("gamma")
        matrices = characteristic.emit_eigen_matrices(b, l, r, b.sub(gamma, 1.0))
        for which, matrix in zip("LR", matrices):
            for i, row in enumerate(matrix):
                for j, entry in enumerate(row):
                    literal = isinstance(entry, float)  # the 1.0/0.0 entries
                    b.output(f"{which}{i}{j}", b.const(entry) if literal else entry)
        out = np.empty((2, 30, nfields, nfields))
        NumpyProgram(b.finish(), ("gamma",)).run(
            field_views(left) + field_views(right) + [1.4],
            [out[m, :, i, j] for m in range(2) for i in range(nfields) for j in range(nfields)],
        )
        expected = eigen_matrices(left, right, 1.4)
        assert out[0].tobytes() == expected[0].tobytes()
        assert out[1].tobytes() == expected[1].tobytes()
