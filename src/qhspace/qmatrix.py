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
and a single ``np.linalg.eig``, read off once by one greedy pass
(``_pair_adjoint_eigenvalues``).  It pairs the eigenvalues into classes,
records each class's representative, candidate, partner and mismatch, and
sorts the classes once; every routine returns them in that order, so
``spectral`` only reads these decisions.  A frozen matrix (see
:meth:`QMatrix.freeze`; every group element is one) computes them on first
use and keeps them, read-only, for every later routine; an unfrozen matrix
recomputes them per call.  ``right_eigenpairs`` takes all 2k adjoint
eigenvectors of a k x k matrix as quaternionic candidates at once
(``_eigen_candidates``, which the diagonal frame reads too), checks their
residuals as one stack and the mismatches, and returns each class's
candidate.  Only ``classify`` takes a second decomposition, the SVD of
``eigenspace_basis``.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import NumericError, ShapeMismatchError
from .quaternion import Quaternion
from .tolerances import CLUSTER_TOL, EIGENPAIR_TOL


class QMatrix:
    """A rows x cols matrix of quaternions in complex-split storage.

    With more than two axes the parts hold a stack of such matrices (see the
    module docstring).
    """

    # A frozen matrix caches its adjoint spectrum.
    __slots__ = ("ca", "cb", "_spectrum")

    def __init__(self, ca, cb):
        ca = np.array(ca, dtype=complex)
        cb = np.array(cb, dtype=complex)
        if ca.ndim < 2 or ca.shape != cb.shape:
            raise ShapeMismatchError("split parts must be equal-shape arrays of at least 2 axes")
        self.ca = ca
        self.cb = cb
        self._spectrum = None

    @classmethod
    def _owning(cls, ca, cb):
        """Wrap complex arrays that nothing else holds, without copying them."""
        out = object.__new__(cls)
        out.ca = ca
        out.cb = cb
        out._spectrum = None
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
    def stack(cls, matrices):
        """Stack one or more equal-shape matrices along a new leading axis."""
        if len({m.ca.shape for m in matrices}) != 1:
            raise ShapeMismatchError("stacked matrices must be one or more of equal shape")
        return cls._owning(np.array([m.ca for m in matrices]), np.array([m.cb for m in matrices]))

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
        real or complex numbers (complex ``a`` is the quaternion ``a + 0*j``)
        or a stack of 1 x 1 matrices with one scalar per element.
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
        """Inverse of :meth:`to_json_dict`; a ValueError names the fields at fault."""
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, found {type(data).__name__}")
        for key in ("rows", "cols", "entries"):
            if key not in data:
                raise ValueError(f"missing field {key!r}")
        # JSON true and false are Python ints too, so the types are compared.
        if not all(type(data[key]) is int and data[key] >= 0 for key in ("rows", "cols")):
            raise ValueError("fields 'rows' and 'cols' must be non-negative integers")
        try:
            if not set(map(type, chain.from_iterable(data["entries"]))) <= {int, float}:
                raise TypeError("found a value that is not a number")
            comp = np.asarray(data["entries"], dtype=float).reshape(data["rows"], data["cols"], 4)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"field 'entries' must be rows x cols lists of 4 numbers: {exc}") from exc
        if not np.isfinite(comp).all():
            raise ValueError(f"field 'entries' must hold finite numbers, found {comp[~np.isfinite(comp)][0]}")
        return cls.from_components(comp)

    def __repr__(self):
        stack = "".join(f"{d}x" for d in self.ca.shape[:-2])
        return f"QMatrix({stack}{self.rows}x{self.cols})"


def chain_product(factors: QMatrix) -> QMatrix:
    """Products ``I @ f[k, 0] @ f[k, 1] @ ...`` of a ``(count, length, r, r)`` stack.

    Each step takes the four complex products, the subtraction and the
    addition of :meth:`QMatrix.__matmul__`, so the bits are those of the
    ``@`` chain; the products are one ``np.matmul`` of the running products
    ``[ca; cb]`` by the factors laid out as ``[[a, b], [conj b, conj a]]``.
    """
    count, length, r, _ = factors.ca.shape
    ca, cb = factors.ca.swapaxes(0, 1), factors.cb.swapaxes(0, 1)
    layout = np.stack([ca, cb, cb.conj(), ca.conj()], axis=1).reshape(length, 2, 2, count, r, r)
    run = np.zeros((2, 1, count, r, r), complex)
    run[0, 0] = np.eye(r)
    for factor in layout:
        p = run @ factor
        np.subtract(p[0, 0], p[1, 0], out=run[0, 0])
        np.add(p[0, 1], p[1, 1], out=run[1, 0])
    return QMatrix._owning(run[0, 0], run[1, 0])


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
    values: tuple
    reps: tuple
    candidates: tuple
    partners: tuple
    mismatches: tuple


def _adjoint_spectrum(m: QMatrix) -> _Spectrum:
    """The complex adjoint of ``m``, its Frobenius norm, its ``eig`` and its classes.

    The classes are the read-off of :func:`_pair_adjoint_eigenvalues`, and
    every eigen routine reads this one decomposition.  A frozen matrix cannot
    change, so it keeps the result, with read-only arrays, and later calls
    reuse it; for an unfrozen matrix it is recomputed on each call.
    """
    if m._spectrum is not None:
        return m._spectrum
    adj = m.adjoint()
    evals, evecs = np.linalg.eig(adj)
    spectrum = _Spectrum(adj, float(np.linalg.norm(adj)), evals, evecs, *_pair_adjoint_eigenvalues(evals))
    if not (m.ca.flags.writeable or m.cb.flags.writeable):
        for arr in (adj, evals, evecs):
            arr.flags.writeable = False
        m._spectrum = spectrum
    return spectrum


def _pair_adjoint_eigenvalues(evals):
    """Collapse the conjugate-paired adjoint spectrum to its classes.

    Greedy nearest matching: repeatedly take the remaining eigenvalue with the
    largest imaginary part and pair it with the closest candidate for its
    conjugate; each pair is one class, so multiplicity is kept.  Returns the
    adjoint eigenvalues, each conjugated into the upper half plane, then per
    class, sorted once by the representative's (modulus, real part): the
    representative (the pair mean), the candidate (the pair's index whose
    value is nearer it, the lower on a tie), the partner and the mismatch
    ``|partner - conj(lam)|``.  No step depends on a tolerance.  The
    arithmetic is on Python complex numbers; the halving is a complex
    product, as numpy takes it, so the bits are those of numpy scalars.
    """
    pool = np.argsort(-evals.imag, kind="stable").tolist()
    evals = evals.tolist()
    values = tuple(complex(lam.real, abs(lam.imag)) for lam in evals)
    classes = []
    while pool:
        a = pool.pop(0)
        target = evals[a].conjugate()
        dists = [abs(evals[k] - target) for k in pool]
        j = min(range(len(dists)), key=dists.__getitem__)
        b = pool.pop(j)
        rep = (0.5 + 0j) * (evals[a] + evals[b].conjugate())
        rep = complex(rep.real, abs(rep.imag))
        near, far = sorted(sorted((a, b)), key=lambda k: abs(values[k] - rep))
        classes.append((rep, near, far, dists[j]))
    classes.sort(key=lambda c: (abs(c[0]), c[0].real))
    return (values, *(zip(*classes) if classes else ((),) * 4))


def _check_pairing(spectrum: _Spectrum):
    """Raise at the first class, in class order, whose mismatch exceeds
    ``EIGENPAIR_TOL`` times the adjoint's norm (at least 1)."""
    limit = EIGENPAIR_TOL * max(1.0, spectrum.adj_norm)
    for mismatch in spectrum.mismatches:
        if mismatch > limit:
            raise NumericError("adjoint spectrum does not split into conjugate pairs", residual=mismatch)


def right_eigenvalues(m: QMatrix):
    """One complex representative per right-eigenvalue similarity class.

    The representative is the class member with non-negative imaginary part;
    multiplicities are preserved, so a square matrix of size k yields k
    values.  Results are in class order, sorted by (modulus, real part) for
    determinism.  Raises :class:`NumericError` at the first class whose
    mismatch exceeds ``EIGENPAIR_TOL`` times the adjoint's norm (at least 1):
    the exact adjoint spectrum is conjugate-symmetric, so any split is
    eigensolver rounding, which grows with norm and conditioning.
    """
    if m.rows != m.cols:
        raise ShapeMismatchError("eigenvalues require a square matrix")
    spectrum = _adjoint_spectrum(m)
    _check_pairing(spectrum)
    return list(spectrum.reps)


def _eigen_candidates(m: QMatrix):
    """``(spectrum, vecs)``: adjoint eigenvector idx as quaternionic candidate idx.

    ``vecs`` stacks the 2k unchecked candidates of a k x k matrix.  One whose
    eigenvalue lies in the lower half plane is right-multiplied by j, which
    conjugates the eigenvalue into ``spectrum.values[idx]``; a class of
    multiplicity k has 2k candidates, each of its k quaternionic lines twice.
    """
    spectrum = _adjoint_spectrum(m)
    evals, evecs = spectrum.evals, spectrum.evecs
    size = m.rows
    ca = np.ascontiguousarray(evecs[:size].T)[..., None]
    cb = np.ascontiguousarray(-evecs[size:].conj().T)[..., None]
    # The products of scale_right(j), j = 0 + 1 j, signed zeros included.
    lower = (evals.imag < 0)[:, None, None]
    vecs = QMatrix._owning(
        np.where(lower, ca * 0j - cb * np.conj(1 + 0j), ca),
        np.where(lower, ca * (1 + 0j) + cb * np.conj(0j), cb),
    )
    return spectrum, vecs


def right_eigenpairs(m: QMatrix):
    """One eigenpair per class, in the class order of :func:`right_eigenvalues`.

    Returns a list of ``(lam, v, residual)``: ``lam`` is the class's
    candidate value and ``v`` its eigenvector, with ``m @ v`` close to
    ``v * lam`` and residual measured relative to ``|v|``.  Raises
    :class:`NumericError` at the first candidate, in adjoint order, whose
    residual exceeds ``EIGENPAIR_TOL``; the candidates are checked as one
    stack.  Then, as :func:`right_eigenvalues`, it raises when the spectrum
    does not split into conjugate pairs.
    """
    if m.rows != m.cols:
        raise ShapeMismatchError("eigenpairs require a square matrix")
    spectrum, vecs = _eigen_candidates(m)
    values = spectrum.values
    resid = (m @ vecs - vecs.scale_right(np.array(values))).norm_max()
    scale = vecs.norm_fro()
    bad = (scale == 0.0) | (resid > EIGENPAIR_TOL * np.maximum(scale, 1.0))
    if bad.any():
        raise NumericError("eigenpair residual too large", residual=float(resid[np.argmax(bad)]))
    _check_pairing(spectrum)
    return [(values[i], QMatrix._owning(vecs.ca[i], vecs.cb[i]), float(resid[i] / scale[i]))
            for i in spectrum.candidates]


def eigenspace_basis(m: QMatrix, lam):
    """Orthonormal basis (columns) of the adjoint eigenspace for ``lam``.

    Works on the complex adjoint via SVD, so it is robust for defective
    eigenvalues, where ``eig``'s eigenvectors degrade; only ``classify`` calls it.
    """
    adj = _adjoint_spectrum(m).adj
    shifted = adj - complex(lam) * np.eye(adj.shape[0])
    _, svals, vh = np.linalg.svd(shifted)
    scale = max(1.0, float(svals.max())) if len(svals) else 1.0
    return vh[svals <= CLUSTER_TOL * scale].conj().T
