"""Exact solver for the 1-D Riemann problem of the Euler equations.

Implements the classic pressure-function iteration (Toro, *Riemann
Solvers and Numerical Methods for Fluid Dynamics*, ch. 4).  The paper
uses the Sod shock tube (its Fig. 1) as the 1-D validation case; the
exact solution produced here is the ground truth the numerical profiles
are compared against in ``benchmarks/test_fig1_sod.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PhysicsError
from repro.euler.constants import GAMMA
from repro.euler import eos


@dataclass(frozen=True)
class RiemannState:
    """One side of a Riemann problem in primitive variables."""

    rho: float
    u: float
    p: float

    def sound_speed(self, gamma: float = GAMMA) -> float:
        return float(eos.sound_speed(self.rho, self.p, gamma))


@dataclass(frozen=True)
class StarRegion:
    """The intermediate (star) region of the exact solution."""

    p: float
    u: float
    rho_left: float
    rho_right: float


def _pressure_function(p: float, side: RiemannState, gamma: float):
    """f_K(p) and its derivative for one side of the problem (Toro 4.6/4.37)."""
    a = side.sound_speed(gamma)
    if p > side.p:  # shock
        big_a = 2.0 / ((gamma + 1.0) * side.rho)
        big_b = (gamma - 1.0) / (gamma + 1.0) * side.p
        sqrt_term = np.sqrt(big_a / (p + big_b))
        f = (p - side.p) * sqrt_term
        df = sqrt_term * (1.0 - 0.5 * (p - side.p) / (p + big_b))
    else:  # rarefaction
        exponent = (gamma - 1.0) / (2.0 * gamma)
        f = 2.0 * a / (gamma - 1.0) * ((p / side.p) ** exponent - 1.0)
        df = (p / side.p) ** (-(gamma + 1.0) / (2.0 * gamma)) / (side.rho * a)
    return f, df


def _initial_guess(left: RiemannState, right: RiemannState, gamma: float) -> float:
    """Two-rarefaction initial guess, robust for the standard test problems."""
    al = left.sound_speed(gamma)
    ar = right.sound_speed(gamma)
    exponent = (gamma - 1.0) / (2.0 * gamma)
    numerator = al + ar - 0.5 * (gamma - 1.0) * (right.u - left.u)
    denominator = al / left.p**exponent + ar / right.p**exponent
    guess = (numerator / denominator) ** (1.0 / exponent)
    return max(guess, 1e-8)


def solve_star_region(
    left: RiemannState,
    right: RiemannState,
    gamma: float = GAMMA,
    tolerance: float = 1e-12,
    max_iterations: int = 100,
) -> StarRegion:
    """Find the star-region pressure/velocity by Newton-Raphson iteration."""
    du = right.u - left.u
    al = left.sound_speed(gamma)
    ar = right.sound_speed(gamma)
    if 2.0 * al / (gamma - 1.0) + 2.0 * ar / (gamma - 1.0) <= du:
        raise PhysicsError("vacuum is generated by the initial data")

    p = _initial_guess(left, right, gamma)
    converged = False
    residual = float("inf")
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        fl, dfl = _pressure_function(p, left, gamma)
        fr, dfr = _pressure_function(p, right, gamma)
        delta = (fl + fr + du) / (dfl + dfr)
        p_new = p - delta
        if p_new <= 0.0:
            p_new = 0.5 * p
        residual = abs(p_new - p) / (0.5 * (p_new + p))
        if abs(p_new - p) < tolerance * 0.5 * (p_new + p):
            p = p_new
            converged = True
            break
        p = p_new
    if not converged:
        # Returning the last iterate would silently hand back an
        # unconverged star state — the downstream exact profiles and
        # the L1 validation they feed would be quietly wrong.
        raise PhysicsError(
            f"exact Riemann Newton iteration did not converge: p ="
            f" {p:.6e}, relative residual {residual:.3e} after"
            f" {iterations} iterations (tolerance {tolerance:.1e})",
            context="exact_riemann.solve_star_region",
            details={
                "p": p,
                "residual": residual,
                "iterations": iterations,
                "tolerance": tolerance,
            },
        )

    fl, _ = _pressure_function(p, left, gamma)
    fr, _ = _pressure_function(p, right, gamma)
    u_star = 0.5 * (left.u + right.u) + 0.5 * (fr - fl)

    rho_left = _star_density(p, left, gamma)
    rho_right = _star_density(p, right, gamma)
    return StarRegion(p=p, u=u_star, rho_left=rho_left, rho_right=rho_right)


def _star_density(p_star: float, side: RiemannState, gamma: float) -> float:
    """Density adjacent to the contact on one side (shock or rarefaction branch)."""
    ratio = p_star / side.p
    if p_star > side.p:  # shock: Rankine-Hugoniot
        gm = (gamma - 1.0) / (gamma + 1.0)
        return side.rho * (ratio + gm) / (gm * ratio + 1.0)
    # rarefaction: isentropic
    return side.rho * ratio ** (1.0 / gamma)


def sample(
    star: StarRegion,
    left: RiemannState,
    right: RiemannState,
    xi: np.ndarray,
    gamma: float = GAMMA,
) -> np.ndarray:
    """Sample the self-similar solution at speeds ``xi = x / t``.

    Returns a primitive state array of shape ``xi.shape + (3,)``.
    """
    xi = np.asarray(xi, dtype=float)
    rho = np.empty_like(xi)
    u = np.empty_like(xi)
    p = np.empty_like(xi)

    left_side = xi <= star.u
    right_side = ~left_side

    _sample_side(star, left, xi, rho, u, p, left_side, gamma, sign=1.0)
    _sample_side(star, right, xi, rho, u, p, right_side, gamma, sign=-1.0)
    return np.stack([rho, u, p], axis=-1)


def _sample_side(star, side, xi, rho, u, p, mask, gamma, sign):
    """Fill the solution on one side of the contact (sign=+1 left, -1 right)."""
    a = side.sound_speed(gamma)
    rho_star = star.rho_left if sign > 0 else star.rho_right

    if star.p > side.p:  # shock on this side
        shock_speed = side.u - sign * a * np.sqrt(
            (gamma + 1.0) / (2.0 * gamma) * star.p / side.p
            + (gamma - 1.0) / (2.0 * gamma)
        )
        outer = mask & (sign * xi < sign * shock_speed)
        inner = mask & ~outer
        _assign(rho, u, p, outer, side.rho, side.u, side.p)
        _assign(rho, u, p, inner, rho_star, star.u, star.p)
        return

    # rarefaction fan on this side
    a_star = a * (star.p / side.p) ** ((gamma - 1.0) / (2.0 * gamma))
    head = side.u - sign * a
    tail = star.u - sign * a_star
    outer = mask & (sign * xi < sign * head)
    inner = mask & (sign * xi > sign * tail)
    fan = mask & ~outer & ~inner
    _assign(rho, u, p, outer, side.rho, side.u, side.p)
    _assign(rho, u, p, inner, rho_star, star.u, star.p)
    if np.any(fan):
        gp = gamma + 1.0
        gm = gamma - 1.0
        factor = 2.0 / gp + sign * gm / (gp * a) * (side.u - xi[fan])
        rho[fan] = side.rho * factor ** (2.0 / gm)
        u[fan] = 2.0 / gp * (sign * a + gm / 2.0 * side.u + xi[fan])
        p[fan] = side.p * factor ** (2.0 * gamma / gm)


def _assign(rho, u, p, mask, rho_value, u_value, p_value):
    rho[mask] = rho_value
    u[mask] = u_value
    p[mask] = p_value


def solve(
    left: RiemannState,
    right: RiemannState,
    x: np.ndarray,
    t: float,
    x_diaphragm: float = 0.0,
    gamma: float = GAMMA,
) -> np.ndarray:
    """Exact primitive solution at positions ``x`` and time ``t > 0``."""
    if not 0.0 < t < np.inf:  # NaN fails both comparisons
        raise PhysicsError(f"exact Riemann sampling requires a finite t > 0, got {t}")
    star = solve_star_region(left, right, gamma)
    xi = (np.asarray(x, dtype=float) - x_diaphragm) / t
    return sample(star, left, right, xi, gamma)
