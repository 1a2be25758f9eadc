"""Scalar arithmetic over the real quaternions.

A quaternion is stored as four float components ``w + x*i + y*j + z*k``
with ``i**2 = j**2 = k**2 = i*j*k = -1``.  Everything here is a pure value
operation; the matrix layer builds on the complex-pair splitting
``q = (w + x*i) + (y + z*i)*j``.
"""

from __future__ import annotations

import math

import numpy as np

from .tolerances import SCALAR_TOL


class Quaternion:
    """A real quaternion with float components."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    @classmethod
    def from_complex_pair(cls, a, b=0j):
        """Build the quaternion ``a + b*j`` from two complex numbers."""
        a = complex(a)
        b = complex(b)
        return cls(a.real, a.imag, b.real, b.imag)

    def complex_pair(self):
        """Return ``(a, b)`` with ``self == a + b*j`` and a, b complex."""
        return complex(self.w, self.x), complex(self.y, self.z)

    # -- involutions and parts -------------------------------------------

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def re(self) -> float:
        return self.w

    def im(self) -> "Quaternion":
        """Vector part, returned with zero real component."""
        return Quaternion(0.0, self.x, self.y, self.z)

    def modulus(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def modulus_sq(self) -> float:
        return self.w**2 + self.x**2 + self.y**2 + self.z**2

    def inverse(self) -> "Quaternion":
        m2 = self.modulus_sq()
        if m2 == 0.0:
            raise ZeroDivisionError("quaternion not invertible")
        return Quaternion(self.w / m2, -self.x / m2, -self.y / m2, -self.z / m2)

    # -- arithmetic ------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a, b = self, other
            return Quaternion(
                a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
                a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
                a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        # Real scalars commute with everything.
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w / other, self.x / other, self.y / other, self.z / other)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)
        if isinstance(other, (int, float)):
            return Quaternion(self.w + other, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)
        if isinstance(other, (int, float)):
            return Quaternion(self.w - other, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(other - self.w, -self.x, -self.y, -self.z)
        return NotImplemented

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __abs__(self):
        return self.modulus()

    # -- comparison and formatting ---------------------------------------

    def __eq__(self, other):
        if isinstance(other, Quaternion):
            return (self.w, self.x, self.y, self.z) == (other.w, other.x, other.y, other.z)
        if isinstance(other, (int, float)):
            return (self.w, self.x, self.y, self.z) == (other, 0.0, 0.0, 0.0)
        return NotImplemented

    def __hash__(self):
        return hash((self.w, self.x, self.y, self.z))

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    def __str__(self):
        parts = []
        for value, unit in ((self.w, ""), (self.x, "i"), (self.y, "j"), (self.z, "k")):
            if value != 0.0 or (unit == "" and not parts):
                sign = "-" if value < 0 else ("+" if parts else "")
                parts.append(f"{sign}{abs(value):g}{unit}")
        return "".join(parts)

    # -- serialization ----------------------------------------------------

    def to_json(self):
        """Serialize as a 4-array ``[w, x, y, z]``."""
        return [self.w, self.x, self.y, self.z]

    @classmethod
    def from_json(cls, data):
        w, x, y, z = data
        return cls(w, x, y, z)


ZERO = Quaternion(0.0)
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def similar(a: Quaternion, b: Quaternion) -> bool:
    """Whether a and b lie in the same conjugation orbit q*a*q^-1.

    Two quaternions are conjugate exactly when they share real part and
    modulus, each to within ``SCALAR_TOL``, so the check is O(1) and needs no
    search for a conjugator.
    """
    return abs(a.re() - b.re()) <= SCALAR_TOL and abs(a.modulus() - b.modulus()) <= SCALAR_TOL


# -- vectorized component kernels -----------------------------------------
#
# Batch operations on float arrays of shape (..., 4).  The sampler checks and
# completes a whole word's normal-form parameters with them, and the property
# tests run them on large batches.  ``mul_components`` evaluates the Hamilton
# product in the order of ``Quaternion.__mul__``, so it matches the scalar
# product bit for bit.

def mul_components(a, b):
    """Hamilton product of two (..., 4) component arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def conj_components(a):
    a = np.asarray(a, dtype=float)
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def modulus_components(a):
    a = np.asarray(a, dtype=float)
    return np.sqrt((a * a).sum(axis=-1))


def random_unit(rng) -> Quaternion:
    """A quaternion drawn uniformly from the unit 3-sphere."""
    v = rng.standard_normal(4)
    v /= math.sqrt(v.dot(v))
    return Quaternion(*v)
