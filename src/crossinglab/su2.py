"""SU(2) matrices stored as pairs (a, b).

The pair stands for [[a, -conj(b)], [b, conj(a)]], so a product needs two
entries instead of four and stays special-unitary in form.  It is the only
SU(2) representation in the library: the magnus6 steps (``ordered_product``),
the transfer chains, the adiabatic transfers, the Jost bases and the
scattering matrix are all pairs, and ``dense`` gives the 2x2 matrix where a
public result is one.
"""

from __future__ import annotations

import math

import numpy as np


def su2_mul(a1, b1, a2, b2):
    """Pair of the product M1 @ M2, elementwise on scalars or arrays."""
    return a1 * a2 - np.conj(b1) * b2, b1 * a2 + np.conj(a1) * b2


def ordered_product(a: np.ndarray, b: np.ndarray):
    """Pair of M[-1] @ ... @ M[1] @ M[0] by pairwise reduction."""
    while a.shape[0] > 1:
        n = a.shape[0]
        even = slice(0, n - n % 2, 2)
        odd = slice(1, n, 2)
        ca, cb = su2_mul(a[odd], b[odd], a[even], b[even])
        if n % 2:
            ca = np.concatenate([ca, a[-1:]])
            cb = np.concatenate([cb, b[-1:]])
        a, b = ca, cb
    return a[0], b[0]


def normalized(a: complex, b: complex) -> tuple[complex, complex]:
    """The pair (a, b) scaled to |a|^2 + |b|^2 = 1."""
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / norm, b / norm


def dense(a, b) -> np.ndarray:
    """The 2x2 complex matrix of the pair (a, b)."""
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]], dtype=complex)
