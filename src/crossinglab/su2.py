"""SU(2) matrices stored as pairs (a, b).

The pair stands for [[a, -conj(b)], [b, conj(a)]], so a product needs two
entries instead of four and stays special-unitary in form.  The same algebra
serves arrays of magnus6 steps (``ordered_product``) and the scalar factors of
the transfer chains (``SU2Matrix``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def dense(a, b) -> np.ndarray:
    """The 2x2 complex matrix of the pair (a, b)."""
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]], dtype=complex)


@dataclass(frozen=True)
class SU2Matrix:
    """Matrix [[a, -conj(b)], [b, conj(a)]] with |a|^2 + |b|^2 = 1."""

    a: complex
    b: complex

    TOL = 1e-12

    def __post_init__(self):
        det = abs(self.a) ** 2 + abs(self.b) ** 2
        if abs(det - 1.0) > 100 * self.TOL:
            raise ValueError(f"not special-unitary: |a|^2+|b|^2 = {det}")

    @staticmethod
    def normalized(a: complex, b: complex) -> "SU2Matrix":
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        return SU2Matrix(a / norm, b / norm)

    @property
    def matrix(self) -> np.ndarray:
        return dense(self.a, self.b)

    def __matmul__(self, other: "SU2Matrix") -> "SU2Matrix":
        return SU2Matrix(*su2_mul(self.a, self.b, other.a, other.b))

    def conjugated(self) -> "SU2Matrix":
        """Entrywise complex conjugation (stays in SU(2))."""
        return SU2Matrix(np.conj(self.a), np.conj(self.b))

    def q_conjugated(self) -> "SU2Matrix":
        """Q M Q with the flip matrix (swaps a <-> conj(a), b <-> -conj(b))."""
        return SU2Matrix(np.conj(self.a), -np.conj(self.b))


def identity_su2() -> SU2Matrix:
    return SU2Matrix(1.0 + 0.0j, 0.0j)


def diagonal_su2(phase: complex) -> SU2Matrix:
    """diag(phase, conj(phase)) for |phase| = 1."""
    return SU2Matrix(phase, 0.0j)
