"""Shared sequences, oracles and hypothesis strategies."""

import numpy as np
import pytest
from hypothesis import strategies as st

from tmfejer.blaschke import PointSequence
from tmfejer.corpus import identity_map, mobius, schur_product

# Mixed-sign, mixed-phase sequence used across operator tests.
MIXED = (0.5, 0.3 + 0.2j, -0.4, 0.2j, -0.15 - 0.35j, 0.45j, 0.25, -0.3 + 0.1j)
# Bracket sequence: every prefix product of moduli stays <= 0.55, which
# keeps prod|a|^2 <= 1 - prod|a| and the two-sided w0 enclosure valid.
BRACKET = (0.55, 0.4j, -0.45, 0.35 - 0.2j, 0.3 + 0.3j, -0.25j, 0.5, 0.2)


@pytest.fixture(scope="session")
def seq_mixed() -> PointSequence:
    return PointSequence(MIXED)


@pytest.fixture(scope="session")
def seq_bracket() -> PointSequence:
    return PointSequence(BRACKET)


@pytest.fixture(scope="session")
def seq_short() -> PointSequence:
    return PointSequence((0.5, 0.3 + 0.2j, -0.4))


def zeros_sequence(n: int) -> PointSequence:
    return PointSequence((0.0,) * n)


def schur_corpus() -> tuple:
    """Members with sup norm at most one on the closed disc."""
    return (
        identity_map(),
        mobius(0.3),
        mobius(-0.4 + 0.2j),
        mobius(0.55j),
        schur_product((0.3, -0.5j)),
        schur_product((0.2, 0.4j, -0.3)),
    )


def central_difference(fn, z: complex, h: float = 1e-6) -> complex:
    """Symmetric difference quotient, the derivative oracle for everything."""
    return (complex(fn(z + h)) - complex(fn(z - h))) / (2.0 * h)


def circle_grid(resolution: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(resolution) / resolution)


def disc_points(max_magnitude: float = 0.85):
    return st.complex_numbers(
        max_magnitude=max_magnitude, allow_nan=False, allow_infinity=False
    )


def angles():
    return st.floats(
        min_value=0.0, max_value=2.0 * np.pi, exclude_max=True, allow_nan=False
    )


def small_sequences(max_len: int = 6, max_modulus: float = 0.8):
    return st.lists(
        disc_points(max_modulus), min_size=1, max_size=max_len
    ).map(lambda vs: PointSequence(tuple(vs)))
