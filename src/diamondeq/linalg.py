"""Dense complex-matrix kernels with explicit error tolerances.

All operations are pure functions of numpy arrays. Flattened tensor indices
follow one global convention, fixed for the whole package: the leftmost
tensor factor is the most significant index, matching ``numpy.kron``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import EigendecompositionError, ValidationError


def as_cmatrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite complex128 2-D array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():  # complex isfinite checks both parts
        raise ValidationError("matrix entries must be finite (no NaN/Inf)")
    return m


def _frobenius(d: np.ndarray) -> float:
    """||D||_F by ``np.linalg.norm``'s own formula for a complex array,
    sqrt(re.re + im.im) over the raveled entries, so the result is bitwise
    equal to ``np.linalg.norm(d)``; it skips that function's dispatch."""
    d = d.ravel(order="K")
    re, im = d.real, d.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def require_hermitian(h) -> np.ndarray:
    """Validate that ``h`` is Hermitian within tolerance and return the
    symmetrized copy (H + H*) / 2.

    Raises ValidationError naming the Frobenius residual on failure.
    """
    m = as_cmatrix(h)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"Hermitian matrix must be square, got shape {m.shape}")
    limit = tolerances.HERM_TOL
    mh = m.conj().T
    residual = _frobenius(m - mh)
    if not residual <= limit:
        raise ValidationError(
            f"matrix is not Hermitian: ||H - H*||_F = {residual:.3e} > {limit:.3e}"
        )
    return 0.5 * (m + mh)


@dataclass(frozen=True, eq=False)
class EigDecomp:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted non-increasing; ``eigenvectors``
    holds the matching orthonormal eigenvectors as columns. ``recon`` and
    ``unit`` are the measured Frobenius residuals ||H - U diag(w) U*|| and
    ||U* U - I|| of the computed pair.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    recon: float
    unit: float

    @property
    def error_bound(self) -> float:
        """Bound on |lambda_i((H + H*)/2) - eigenvalues[i]| for every i.

        With the polar factor P = (U* U)^(1/2), U diag(w) U* has the
        eigenvalues of P diag(w) P, and ||P - I|| <= ||U* U - I||; Weyl's
        inequality then gives recon + unit (2 + unit) max|w|, since
        ||(H + H*)/2 - X|| <= ||H - X|| = recon for the Hermitian X = U diag(w) U*.
        """
        scale = float(np.max(np.abs(self.eigenvalues)))
        return self.recon + self.unit * (2.0 + self.unit) * scale


def herm_eig(h) -> EigDecomp:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Checks the residuals ||H - U diag(w) U*|| and ||U* U - I|| against
    ``EIG_TOL * dim`` before returning them on the result. ``eigh`` reads the
    lower triangle and ``recon`` is taken against H as given, so the gate is
    also the Hermitian check (recon >= ||H - H*||_F / 2) and refuses NaNs.
    """
    m = np.asarray(h, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square 2-D matrix, got shape {m.shape}")
    n = m.shape[0]
    try:
        w, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(
            f"eigendecomposition of a {n}x{n} Hermitian matrix did not converge"
        ) from exc
    w = w[::-1].copy()
    u = u[:, ::-1].copy()
    limit = tolerances.EIG_TOL * n
    uh = u.conj().T
    recon = _frobenius(m - (u * w) @ uh)
    gram = uh @ u
    gram.flat[::n + 1] -= 1.0
    unit = _frobenius(gram)
    if not (recon <= limit and unit <= limit):
        raise EigendecompositionError(
            f"eigendecomposition of a {n}x{n} matrix exceeded residual bounds: "
            f"||H - U diag(w) U*|| {recon:.3e}, ||U* U - I|| {unit:.3e}, limit {limit:.3e}"
        )
    return EigDecomp(w, u, recon, unit)


def best_effect(h) -> tuple[np.ndarray, float]:
    """The effect 0 <= E <= I maximizing <E, H>, the projector P onto the
    strictly positive eigenspace, with a bound on max_E <E, H> - <P, H>.

    The bound is 2 n e + unit * recon, where e is the decomposition's
    ``error_bound``: the maximum, sum_i max(lambda_i, 0), is within n e of
    the computed positive eigenvalues' sum, and <P, H> is within the rest of
    that sum, since the computed eigenvectors are orthonormal, and
    diagonalize H, only up to the residuals. Eigenvalues are taken from the
    input's lower triangle; the zero matrix maps to the zero projector.
    """
    dec = herm_eig(h)
    cols = dec.eigenvectors[:, dec.eigenvalues > 0.0]
    p = cols @ cols.conj().T
    n = dec.eigenvalues.shape[0]
    return 0.5 * (p + p.conj().T), 2.0 * n * dec.error_bound + dec.unit * dec.recon


def trace_norm(a) -> float:
    """Trace norm ||A||_1, the sum of singular values."""
    m = as_cmatrix(a)
    try:
        s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(
            f"singular value decomposition of a {m.shape[0]}x{m.shape[1]} "
            "matrix did not converge"
        ) from exc
    return float(np.sum(s))


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out tensor factors of a square matrix.

    ``dims`` lists the factor dimensions, leftmost factor most significant in
    the flattened index; ``keep`` selects the factor positions to retain.
    Kept factors stay in their original relative order. The full trace is
    preserved: tr(result) = tr(M).
    """
    mm = as_cmatrix(m)
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise ValidationError(f"factor dimensions must be positive, got {dims}")
    side = int(np.prod(dims))
    if mm.shape != (side, side):
        raise ValidationError(
            f"matrix shape {mm.shape} does not match factor dimensions {dims} "
            f"(expected {side}x{side})"
        )
    keep = tuple(sorted(set(int(k) for k in keep)))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValidationError(f"keep positions {keep} out of range for {len(dims)} factors")
    k = len(dims)
    tensor = mm.reshape(dims + dims)
    letters = "abcdefghijklmnopqrstuvwxyz"
    if 2 * k > len(letters):
        raise ValidationError(f"too many tensor factors ({k})")
    row = list(letters[:k])
    col = [letters[k + i] if i in keep else row[i] for i in range(k)]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out, tensor)
    kept_side = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reduced.reshape(kept_side, kept_side)
