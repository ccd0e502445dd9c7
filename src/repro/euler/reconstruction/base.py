"""Reconstruction interface shared by all schemes.

A *reconstruction scheme* turns cell-averaged values into left/right
states at the faces between cells (stage 1 of the Godunov pipeline the
paper describes in Section 3).  Schemes are written in **stencil
form**: they receive a list of per-face aligned cell arrays

    cells[k][j] = value in cell (j - 1 + offsets[k]) for face j

with ``offsets = range(-ghost_cells + 1, ghost_cells + 1)`` relative to
the *left* cell of the face.  Equivalently, ``cells[ghost_cells - 1]``
is the cell just left of the face and ``cells[ghost_cells]`` the cell
just right of it.  Stencil form lets the characteristic-variable
wrapper apply a per-face change of basis before calling the same
scheme unchanged.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: A stencil-form reconstruction: list of aligned cell arrays -> (left, right).
StencilScheme = Callable[[Sequence[np.ndarray]], Tuple[np.ndarray, np.ndarray]]


def stencil_views(padded: np.ndarray, ghost_cells: int) -> List[np.ndarray]:
    """Aligned per-face views of a padded cell array.

    ``padded`` holds ``N + 2 * ghost_cells`` cells along axis 0.  There
    are ``N + 1`` interior faces; view ``k`` holds, for every face, the
    cell at stencil offset ``k`` (see module docstring).
    """
    total = padded.shape[0]
    interior = total - 2 * ghost_cells
    if interior < 1:
        raise ConfigurationError(
            f"padded array of {total} cells is too small for {ghost_cells} ghost cells"
        )
    faces = interior + 1
    views = []
    for k in range(2 * ghost_cells):
        views.append(padded[k : k + faces])
    return views


def reconstruct_component(
    scheme: StencilScheme, padded: np.ndarray, ghost_cells: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Run a stencil scheme on raw (componentwise) values."""
    return scheme(stencil_views(padded, ghost_cells))
