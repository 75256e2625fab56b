"""Shared utilities: seeded RNG helpers, flat-vector packing, validation.

Everything in :mod:`repro` that needs randomness takes either an integer
seed or a :class:`numpy.random.Generator`; :func:`as_generator` normalizes
the two.  Flat-vector helpers are the bridge between the neural-network
substrate (structured parameters) and the distributed algorithms (which
operate on a single ``RN`` vector, exactly as the paper's notation does).
"""

from repro.utils.rng import as_generator, spawn_generators, derive_seed
from repro.utils.dtypes import DEFAULT_DTYPE, SUPPORTED_DTYPES, resolve_dtype
from repro.utils.parallel import (
    block_ranges,
    num_threads,
    parallel_map,
    set_num_threads,
)
from repro.utils.flat import (
    flatten_arrays,
    unflatten_vector,
    ParamSpec,
    param_specs,
)
from repro.utils.validation import (
    check_square,
    check_symmetric,
    check_positive,
    check_non_negative,
    check_in_range,
)

__all__ = [
    "as_generator",
    "spawn_generators",
    "derive_seed",
    "DEFAULT_DTYPE",
    "SUPPORTED_DTYPES",
    "resolve_dtype",
    "block_ranges",
    "num_threads",
    "parallel_map",
    "set_num_threads",
    "flatten_arrays",
    "unflatten_vector",
    "ParamSpec",
    "param_specs",
    "check_square",
    "check_symmetric",
    "check_positive",
    "check_non_negative",
    "check_in_range",
]
