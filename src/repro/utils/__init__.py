"""Shared utilities: seeded RNG helpers, flat-vector packing, validation.

Everything in :mod:`repro` that needs randomness takes either an integer
seed or a :class:`numpy.random.Generator`;
:func:`~repro.utils.rng.as_generator` normalizes the two.  Flat-vector helpers are the bridge between the neural-network
substrate (structured parameters) and the distributed algorithms (which
operate on a single ``RN`` vector, exactly as the paper's notation does).
"""
