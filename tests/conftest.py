"""Shared fixtures: compiled programs are expensive, so they are
session-scoped; random states come from seeded generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.euler.solver import SolverConfig

# Property tests that leave ``max_examples`` to the profile run hypothesis'
# stock 100 examples by default and ten times that under
# ``--hypothesis-profile=ci`` (hypothesis' own pytest flag).
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20090707)


@pytest.fixture(scope="session")
def pc_config():
    """The paper's benchmark method: PC reconstruction + Rusanov + RK3."""
    return SolverConfig(reconstruction="pc", riemann="rusanov", rk_order=3, cfl=0.5)


@pytest.fixture(scope="session")
def sac_euler1d():
    from repro.sac import compile_file

    return compile_file("euler1d.sac")


@pytest.fixture(scope="session")
def sac_euler2d():
    from repro.sac import compile_file

    return compile_file("euler2d.sac")


@pytest.fixture(scope="session")
def f90_euler2d():
    from repro.f90 import compile_file

    return compile_file("euler2d.f90")


def random_primitive_1d(rng, n, seed_offset=0):
    """Physically valid random 1-D primitive states (rho, u, p)."""
    local = np.random.default_rng(rng.integers(0, 2**31) + seed_offset)
    state = np.empty((n, 3))
    state[:, 0] = local.uniform(0.2, 3.0, n)
    state[:, 1] = local.normal(0.0, 0.7, n)
    state[:, 2] = local.uniform(0.2, 3.0, n)
    return state


def random_primitive_2d(rng, nx, ny, seed_offset=0):
    """Physically valid random 2-D primitive states (rho, u, v, p)."""
    local = np.random.default_rng(rng.integers(0, 2**31) + seed_offset)
    state = np.empty((nx, ny, 4))
    state[..., 0] = local.uniform(0.2, 3.0, (nx, ny))
    state[..., 1] = local.normal(0.0, 0.7, (nx, ny))
    state[..., 2] = local.normal(0.0, 0.7, (nx, ny))
    state[..., 3] = local.uniform(0.2, 3.0, (nx, ny))
    return state
