"""Dense matrices over the quaternions.

A matrix is stored in complex-split form ``M = ca + cb*j`` with two complex
arrays of equal shape.  Multiplication then reduces to four complex matrix
products, and the complex adjoint

    adj(M) = [[ca, cb], [-conj(cb), conj(ca)]]

is a ring homomorphism into 2m x 2n complex matrices.  The adjoint is the
workhorse for right eigenvalues: eigenvalues of ``adj(M)`` come in conjugate
pairs, and the representatives with non-negative imaginary part are exactly
the similarity classes of right eigenvalues of M.

A QMatrix may also hold a stack of equal-shape matrices: ``ca`` and ``cb``
then have shape ``(..., rows, cols)`` and the leading axes index the
elements.  Products, ``star`` (which swaps the last two axes), sums and
differences, scaling, the norms and ``entry_moduli`` act element by element
and broadcast like NumPy arrays, so a stack of matrices times one matrix
multiplies each element by it.  Each element gets the bits it would get
alone, which the sampler's byte-identical output relies on and the tests
check.  Entry access, the complex adjoint, the
eigen routines and JSON serialization are defined for a single matrix only
and raise :class:`ShapeMismatchError` on a stack.

Ownership: the public constructor copies both parts, so a QMatrix never
holds a caller's array.  Every result the class computes itself (products,
``star``, sums and differences, negation, scaling) takes ownership of the
fresh arrays it made instead of copying them again.  ``submatrix`` of a
frozen matrix is a read-only view of its storage; of an unfrozen matrix it is
a copy.  ``copy()`` and group admission copy.  ``freeze()`` copies a part that
is a view of other, writable storage before making it read-only, so freezing
never makes a caller's array read-only and a frozen matrix never shares
memory with a writable array.

The eigen routines share one decomposition: the adjoint, its Frobenius norm
and a single ``np.linalg.eig``.  A frozen matrix (see :meth:`QMatrix.freeze`;
every group element is one) computes it on first use and keeps it, read-only,
for every later routine, together with the pairing of its eigenvalues into
right-eigenvalue representatives; an unfrozen matrix recomputes both per
call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericError, ShapeMismatchError
from .quaternion import Quaternion
from .tolerances import CLUSTER_TOL, EIGENPAIR_TOL, PAIRING_TOL


class QMatrix:
    """A rows x cols matrix of quaternions in complex-split storage.

    With more than two axes the parts hold a stack of such matrices (see the
    module docstring).
    """

    # A frozen matrix caches its adjoint spectrum and the eigenvalue pairing.
    __slots__ = ("ca", "cb", "_spectrum", "_pairing")

    def __init__(self, ca, cb):
        ca = np.array(ca, dtype=complex)
        cb = np.array(cb, dtype=complex)
        if ca.ndim < 2 or ca.shape != cb.shape:
            raise ShapeMismatchError("split parts must be equal-shape arrays of at least 2 axes")
        self.ca = ca
        self.cb = cb
        self._spectrum = None
        self._pairing = None

    @classmethod
    def _owning(cls, ca, cb):
        """Wrap complex arrays that nothing else holds, without copying them."""
        out = object.__new__(cls)
        out.ca = ca
        out.cb = cb
        out._spectrum = None
        out._pairing = None
        return out

    # -- construction ------------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols):
        return cls(np.zeros((rows, cols), complex), np.zeros((rows, cols), complex))

    @classmethod
    def identity(cls, m):
        return cls(np.eye(m, dtype=complex), np.zeros((m, m), complex))

    @classmethod
    def diag(cls, quats):
        quats = list(quats)
        m = len(quats)
        out = cls.zeros(m, m)
        for idx, q in enumerate(quats):
            a, b = q.complex_pair()
            out.ca[idx, idx] = a
            out.cb[idx, idx] = b
        return out

    @classmethod
    def from_quaternions(cls, rows):
        """Build from a nested list of Quaternion values (row major)."""
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        out = cls.zeros(nr, nc)
        for i, row in enumerate(rows):
            if len(row) != nc:
                raise ShapeMismatchError("ragged rows")
            for j, q in enumerate(row):
                a, b = q.complex_pair()
                out.ca[i, j] = a
                out.cb[i, j] = b
        return out

    @classmethod
    def column(cls, quats):
        return cls.from_quaternions([[q] for q in quats])

    @classmethod
    def from_components(cls, comp):
        """Build from a float array of shape (..., rows, cols, 4)."""
        comp = np.asarray(comp, dtype=float)
        if comp.ndim < 3 or comp.shape[-1] != 4:
            raise ShapeMismatchError("component array must have shape (..., rows, cols, 4)")
        ca = comp[..., 0] + 1j * comp[..., 1]
        cb = comp[..., 2] + 1j * comp[..., 3]
        return cls(ca, cb)

    @classmethod
    def from_blocks(cls, blocks):
        """Assemble from a nested list of QMatrix blocks."""
        ca = np.concatenate([np.concatenate([b.ca for b in row], axis=-1) for row in blocks], axis=-2)
        cb = np.concatenate([np.concatenate([b.cb for b in row], axis=-1) for row in blocks], axis=-2)
        return cls(ca, cb)

    # -- shape and access ----------------------------------------------------

    @property
    def rows(self):
        return self.ca.shape[-2]

    @property
    def cols(self):
        return self.ca.shape[-1]

    @property
    def is_stack(self):
        return self.ca.ndim > 2

    def _require_single(self, what):
        if self.is_stack:
            raise ShapeMismatchError(f"{what} is defined for a single matrix, not a stack")

    @property
    def components(self):
        """Float view of shape (..., rows, cols, 4)."""
        return np.stack(
            [self.ca.real, self.ca.imag, self.cb.real, self.cb.imag], axis=-1
        )

    def __getitem__(self, key):
        self._require_single("entry access")
        i, j = key
        return Quaternion.from_complex_pair(self.ca[i, j], self.cb[i, j])

    def submatrix(self, rows, cols):
        """Extract a block; `rows` and `cols` are slices or ints."""
        if isinstance(rows, int):
            rows = slice(rows, rows + 1)
        if isinstance(cols, int):
            cols = slice(cols, cols + 1)
        return QMatrix._owning(
            _unshared(self.ca[..., rows, cols]), _unshared(self.cb[..., rows, cols])
        )

    def copy(self):
        return QMatrix._owning(self.ca.copy(), self.cb.copy())

    def freeze(self):
        """Make the underlying storage read-only.

        A part that views other, writable storage is copied first.  A frozen
        matrix keeps the adjoint eigendecomposition that the first eigen
        routine called on it computes.
        """
        self.ca = _unshared(self.ca)
        self.cb = _unshared(self.cb)
        self.ca.flags.writeable = False
        self.cb.flags.writeable = False
        return self

    # -- algebra -------------------------------------------------------------

    def __matmul__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # (a1 + b1 j)(a2 + b2 j) = (a1 a2 - b1 conj(b2)) + (a1 b2 + b1 conj(a2)) j
        ca = self.ca @ other.ca - self.cb @ other.cb.conj()
        cb = self.ca @ other.cb + self.cb @ other.ca.conj()
        return QMatrix._owning(ca, cb)

    def star(self):
        """Quaternionic Hermitian transpose (conjugate transpose)."""
        return QMatrix._owning(self.ca.conj().swapaxes(-1, -2), -self.cb.swapaxes(-1, -2))

    def __add__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return QMatrix._owning(self.ca + other.ca, self.cb + other.cb)

    def __sub__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return QMatrix._owning(self.ca - other.ca, self.cb - other.cb)

    def __neg__(self):
        return QMatrix._owning(-self.ca, -self.cb)

    def scale_left(self, q):
        """Entrywise left multiplication q * M.

        ``q`` is a Quaternion or a real number, or, for a stack, an array of
        real numbers or a stack of 1 x 1 matrices with one scalar per element.
        """
        qa, qb = _as_pair(q)
        return QMatrix._owning(
            qa * self.ca - qb * self.cb.conj(), qa * self.cb + qb * self.ca.conj()
        )

    def scale_right(self, q):
        """Entrywise right multiplication M * q; ``q`` as in :meth:`scale_left`."""
        qa, qb = _as_pair(q)
        return QMatrix._owning(
            self.ca * qa - self.cb * np.conj(qb), self.ca * qb + self.cb * np.conj(qa)
        )

    # -- norms ----------------------------------------------------------------

    def entry_moduli(self):
        return np.sqrt(np.abs(self.ca) ** 2 + np.abs(self.cb) ** 2)

    def norm_max(self):
        """Largest entry modulus (0 for empty matrices); one per stack element."""
        if self.is_stack:
            if self.rows == 0 or self.cols == 0:
                return np.zeros(self.ca.shape[:-2])
            return self.entry_moduli().max(axis=(-2, -1))
        if self.ca.size == 0:
            return 0.0
        return float(self.entry_moduli().max())

    def norm_fro(self):
        """Frobenius norm; one per stack element."""
        squares = np.abs(self.ca) ** 2 + np.abs(self.cb) ** 2
        if self.is_stack:
            return np.sqrt(squares.sum(axis=(-2, -1)))
        return float(np.sqrt(squares.sum()))

    # -- complex adjoint --------------------------------------------------------

    def adjoint(self):
        """The complex adjoint, a 2*rows x 2*cols complex matrix."""
        self._require_single("the complex adjoint")
        r, c = self.ca.shape
        adj = np.empty((2 * r, 2 * c), complex)
        adj[:r, :c] = self.ca
        adj[:r, c:] = self.cb
        adj[r:, :c] = -self.cb.conj()
        adj[r:, c:] = self.ca.conj()
        return adj

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self):
        self._require_single("JSON serialization")
        entries = self.components.reshape(-1, 4).tolist()
        return {"rows": self.rows, "cols": self.cols, "entries": entries}

    @classmethod
    def from_json_dict(cls, data):
        rows, cols = data["rows"], data["cols"]
        comp = np.asarray(data["entries"], dtype=float).reshape(rows, cols, 4)
        return cls.from_components(comp)

    def __repr__(self):
        stack = "".join(f"{d}x" for d in self.ca.shape[:-2])
        return f"QMatrix({stack}{self.rows}x{self.cols})"


def _unshared(arr):
    """``arr``, or a copy of it when it is a writable view of other storage."""
    return arr.copy() if arr.base is not None and arr.flags.writeable else arr


def _as_pair(q):
    if isinstance(q, Quaternion):
        return q.complex_pair()
    if isinstance(q, QMatrix):
        if q.rows != 1 or q.cols != 1:
            raise ShapeMismatchError("a matrix scale factor must be a stack of 1x1 matrices")
        return q.ca, q.cb
    if isinstance(q, np.ndarray) and q.ndim:
        return q.astype(complex)[..., None, None], 0j
    return complex(q), 0j


class _Spectrum(NamedTuple):
    adj: np.ndarray
    adj_norm: float
    evals: np.ndarray
    evecs: np.ndarray


def _adjoint_spectrum(m: QMatrix) -> _Spectrum:
    """The complex adjoint of ``m``, its Frobenius norm and its ``eig``.

    Every eigen routine reads this one decomposition.  A frozen matrix
    cannot change, so it keeps the result, with read-only arrays, and later
    calls reuse it, as :func:`right_eigenvalues` reuses its pairing; for an
    unfrozen matrix both are recomputed on each call.
    """
    if m._spectrum is not None:
        return m._spectrum
    adj = m.adjoint()
    evals, evecs = np.linalg.eig(adj)
    spectrum = _Spectrum(adj, float(np.linalg.norm(adj)), evals, evecs)
    if not (m.ca.flags.writeable or m.cb.flags.writeable):
        for arr in (adj, evals, evecs):
            arr.flags.writeable = False
        m._spectrum = spectrum
    return spectrum


def _pair_adjoint_eigenvalues(evals):
    """Collapse the conjugate-paired adjoint spectrum to class representatives.

    Greedy nearest matching: repeatedly take the remaining eigenvalue with the
    largest imaginary part and pair it with the closest candidate for its
    conjugate.  Representatives keep algebraic multiplicity.  Returns the
    representatives, sorted by (modulus, real part), and the mismatch
    ``|partner - conj(lam)|`` of each pair in matching order.  No step
    depends on a tolerance, so one pairing serves every tolerance.
    """
    order = np.argsort(-evals.imag, kind="stable")
    pool = list(evals[order])
    reps = []
    mismatches = []
    while pool:
        lam = pool.pop(0)
        target = np.conj(lam)
        dists = [abs(other - target) for other in pool]
        j = int(np.argmin(dists))
        mismatches.append(dists[j])
        partner = pool.pop(j)
        rep = 0.5 * (lam + np.conj(partner))
        reps.append(complex(rep.real, abs(rep.imag)))
    reps.sort(key=lambda lam: (abs(lam), lam.real))
    return tuple(reps), tuple(mismatches)


def right_eigenvalues(m: QMatrix, tol=PAIRING_TOL):
    """One complex representative per right-eigenvalue similarity class.

    The representative is the class member with non-negative imaginary part;
    multiplicities are preserved, so a square matrix of size k yields k
    values.  Results are sorted by (modulus, real part) for determinism.
    Raises :class:`NumericError` at the first pair, in matching order, whose
    mismatch exceeds ``tol`` times the adjoint's norm (at least 1): the exact
    adjoint spectrum is conjugate-symmetric, so any split is eigensolver
    rounding, which grows with norm and conditioning.
    """
    if m.rows != m.cols:
        raise ShapeMismatchError("eigenvalues require a square matrix")
    spectrum = _adjoint_spectrum(m)
    pairing = m._pairing
    if pairing is None:
        pairing = _pair_adjoint_eigenvalues(spectrum.evals)
        if m._spectrum is spectrum:
            m._pairing = pairing
    reps, mismatches = pairing
    limit = tol * max(1.0, spectrum.adj_norm)
    for mismatch in mismatches:
        if mismatch > limit:
            raise NumericError(
                "adjoint spectrum does not split into conjugate pairs", residual=mismatch
            )
    return list(reps)


def right_eigenpairs(m: QMatrix, tol=EIGENPAIR_TOL):
    """Eigenvalue representatives together with quaternionic eigenvectors.

    Returns a list of ``(lam, v, residual)`` with ``m @ v`` close to
    ``v * lam`` and residual measured relative to ``|v|``.  Raises
    :class:`NumericError` when a residual exceeds ``tol``.
    """
    if m.rows != m.cols:
        raise ShapeMismatchError("eigenpairs require a square matrix")
    spectrum = _adjoint_spectrum(m)
    evals, evecs = spectrum.evals, spectrum.evecs
    size = m.rows
    j_unit = Quaternion(0.0, 0.0, 1.0, 0.0)
    candidates = []
    for idx in range(2 * size):
        lam = evals[idx]
        vec = quaternion_vector_from_adjoint(evecs[:, idx])
        if lam.imag < 0:
            # Right-multiplying an eigenvector by j conjugates the eigenvalue,
            # moving the representative into the upper half plane.
            vec = vec.scale_right(j_unit)
        rep = complex(lam.real, abs(lam.imag))
        resid = (m @ vec - vec.scale_right(Quaternion.from_complex_pair(rep))).norm_max()
        scale = vec.norm_fro()
        if scale == 0.0 or resid > tol * max(scale, 1.0):
            raise NumericError("eigenpair residual too large", residual=resid)
        candidates.append((rep, vec, resid / scale))
    # Each similarity class appears twice per multiplicity; keep one candidate
    # per representative from the values-only path.
    reps = right_eigenvalues(m, tol=max(tol, PAIRING_TOL))
    pairs = []
    for rep in reps:
        j = int(np.argmin([abs(p[0] - rep) for p in candidates]))
        pairs.append(candidates.pop(j))
    pairs.sort(key=lambda p: (abs(p[0]), p[0].real))
    return pairs


def eigenspace_basis(m: QMatrix, lam, atol=CLUSTER_TOL):
    """Orthonormal basis (columns) of the adjoint eigenspace for ``lam``.

    Works on the complex adjoint via SVD, so it is robust for defective
    eigenvalues where the eigenvector matrix of ``eig`` degrades.
    """
    adj = _adjoint_spectrum(m).adj
    shifted = adj - complex(lam) * np.eye(adj.shape[0])
    _, svals, vh = np.linalg.svd(shifted)
    scale = max(1.0, float(svals.max())) if len(svals) else 1.0
    mask = svals <= atol * scale
    basis = vh[mask].conj().T
    return basis


def quaternion_vector_from_adjoint(zeta) -> QMatrix:
    """Convert an adjoint-space column of length 2m to a quaternionic m-vector."""
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    size = zeta.shape[0] // 2
    return QMatrix(zeta[:size].reshape(-1, 1), -zeta[size:].conj().reshape(-1, 1))
