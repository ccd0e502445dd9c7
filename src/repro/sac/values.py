"""Runtime values of the SaC evaluators.

Every SaC value is represented as a NumPy array (0-d for scalars) with
dtype float64 / int64 / bool mapping to the base types double / int /
bool.  Helpers here normalise host inputs and recover SaC type
information from runtime values.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.errors import SacRuntimeError
from repro.sac.types import SacType, concrete_type

HostValue = Union[int, float, bool, np.ndarray, list, tuple]

_DTYPE_TO_BASE = {
    np.dtype(np.float64): "double",
    np.dtype(np.int64): "int",
    np.dtype(np.bool_): "bool",
}


def to_value(host: HostValue) -> np.ndarray:
    """Normalise a host value to a SaC runtime value (NumPy array).

    Python ints become int, floats become double, bools stay bool;
    other dtypes are promoted to the nearest SaC base type.
    """
    if isinstance(host, np.ndarray):
        array = host
    elif isinstance(host, bool):
        return np.bool_(host)
    elif isinstance(host, (int, np.integer)):
        return np.int64(host)
    elif isinstance(host, (float, np.floating)):
        return np.float64(host)
    else:
        array = np.asarray(host)

    if array.dtype in _DTYPE_TO_BASE:
        return array
    if np.issubdtype(array.dtype, np.bool_):
        return array.astype(np.bool_)
    if np.issubdtype(array.dtype, np.integer):
        return array.astype(np.int64)
    if np.issubdtype(array.dtype, np.floating):
        return array.astype(np.float64)
    raise SacRuntimeError(f"unsupported host dtype {array.dtype}")


def base_of(value) -> str:
    """SaC base type of a runtime value."""
    dtype = np.asarray(value).dtype
    for known, base in _DTYPE_TO_BASE.items():
        if dtype == known:
            return base
    raise SacRuntimeError(f"value has non-SaC dtype {dtype}")


def shape_of(value) -> Tuple[int, ...]:
    return tuple(np.asarray(value).shape)


def type_of(value) -> SacType:
    """Concrete (AKS) SaC type of a runtime value."""
    return concrete_type(base_of(value), shape_of(value))


def is_scalar(value) -> bool:
    return np.asarray(value).ndim == 0


def as_index_vector(value, context: str) -> Tuple[int, ...]:
    """Interpret a value as an index/shape vector (scalar = length-1)."""
    array = np.asarray(value)
    if array.ndim == 0:
        return (int(array),)
    if array.ndim == 1 and np.issubdtype(array.dtype, np.integer):
        return tuple(int(entry) for entry in array)
    raise SacRuntimeError(f"{context}: expected an integer vector, got shape {array.shape}")
