"""Slope limiters for the TVD reconstructions.

The paper's Fortran code ships "TVD reconstructions of the 2nd and 3rd
orders with various slope limiters"; these are the classic four.  Each
limiter combines a backward difference ``a`` and a forward difference
``b`` into a limited slope that vanishes at extrema (so total variation
cannot grow).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Most dissipative limiter: smallest slope, zero on sign disagreement."""
    return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))


def minmod3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Three-argument minmod (used by the MC limiter and the TVD-3 scheme)."""
    sign = np.sign(a)
    agree = (np.sign(b) == sign) & (np.sign(c) == sign)
    magnitude = np.minimum(np.abs(a), np.minimum(np.abs(b), np.abs(c)))
    return np.where(agree, sign * magnitude, 0.0)


def superbee(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least dissipative classical limiter (sharpens contacts, can square waves)."""
    s1 = minmod(2.0 * a, b)
    s2 = minmod(a, 2.0 * b)
    return np.where(np.abs(s1) > np.abs(s2), s1, s2)


def van_leer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smooth harmonic-mean limiter."""
    product = a * b
    denominator = a + b
    safe = np.where(denominator == 0.0, 1.0, denominator)
    return np.where(product > 0.0, 2.0 * product / safe, 0.0)


def mc(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Monotonized central-difference limiter (van Leer's MC)."""
    return minmod3(0.5 * (a + b), 2.0 * a, 2.0 * b)


# -- kernel-IR definitions (repro.jit) ----------------------------------
#
# One IR op per rounded operation of the limiters above; ``np.where``
# becomes ``select``.  The in-place NumPy schemes and the compiled
# kernels are both derived from these.  ``b_`` names avoid shadowing the
# forward-difference argument ``b``.


def emit_minmod(b_, a, b):
    """IR definition of :func:`minmod`."""
    signs = b_.sign(a)
    scratch = b_.sign(b)
    signs = b_.add(signs, scratch)
    signs = b_.mul(signs, 0.5)
    mags = b_.abs_(a)
    scratch = b_.abs_(b)
    mags = b_.minimum(mags, scratch)
    return b_.mul(signs, mags)


def emit_minmod3(b_, a, b, c):
    """IR definition of :func:`minmod3`."""
    signs = b_.sign(a)
    scratch = b_.sign(b)
    agree = b_.eq(scratch, signs)
    scratch = b_.sign(c)
    mask = b_.eq(scratch, signs)
    agree = b_.and_(agree, mask)
    mags = b_.abs_(b)
    scratch = b_.abs_(c)
    mags = b_.minimum(mags, scratch)
    scratch = b_.abs_(a)
    mags = b_.minimum(scratch, mags)
    mags = b_.mul(signs, mags)
    return b_.select(agree, mags, 0.0)


def emit_superbee(b_, a, b):
    """IR definition of :func:`superbee`."""
    doubled = b_.mul(a, 2.0)
    s1 = emit_minmod(b_, doubled, b)
    doubled = b_.mul(b, 2.0)
    s2 = emit_minmod(b_, a, doubled)
    mag1 = b_.abs_(s1)
    mag2 = b_.abs_(s2)
    mask = b_.gt(mag1, mag2)
    return b_.select(mask, s1, s2)


def emit_van_leer(b_, a, b):
    """IR definition of :func:`van_leer`."""
    product = b_.mul(a, b)
    safe = b_.add(a, b)
    mask = b_.eq(safe, 0.0)
    safe = b_.select(mask, 1.0, safe)
    ratio = b_.mul(product, 2.0)
    ratio = b_.div(ratio, safe)
    mask = b_.gt(product, 0.0)
    return b_.select(mask, ratio, 0.0)


def emit_mc(b_, a, b):
    """IR definition of :func:`mc`."""
    central = b_.add(a, b)
    central = b_.mul(central, 0.5)
    twice_a = b_.mul(a, 2.0)
    twice_b = b_.mul(b, 2.0)
    return emit_minmod3(b_, central, twice_a, twice_b)


LIMITERS = {
    "minmod": minmod,
    "superbee": superbee,
    "vanleer": van_leer,
    "mc": mc,
}

#: IR emitters, same keys as :data:`LIMITERS`.
LIMITER_EMITTERS = {
    "minmod": emit_minmod,
    "superbee": emit_superbee,
    "vanleer": emit_van_leer,
    "mc": emit_mc,
}


def get_limiter(name: str):
    """Look up a limiter by name; raises ConfigurationError for unknown names."""
    try:
        return LIMITERS[name]
    except KeyError:
        known = ", ".join(sorted(LIMITERS))
        raise ConfigurationError(f"unknown limiter {name!r} (known: {known})") from None
