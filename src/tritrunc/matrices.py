"""Dense complex matrix algebra: Schur-Hadamard products, singular values
(one LAPACK route, the SVD), Schatten quasinorms, and the structured 0/1
masks used throughout (upper-triangular mask, its Hankel companion), with
their singular spectrum in closed form."""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "schur_product",
    "singular_values",
    "schatten_quasinorm",
    "chi_matrix",
    "delta_matrix",
    "mask_spectrum",
    "triangular_projection",
    "block_diag2",
    "block2x2",
]


def _as_matrix(a, name="matrix"):
    """Coerce to a 2-D ndarray and enforce the type invariants."""
    m = np.asarray(a)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-D array with positive shape, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or (np.iscomplexobj(m) and not np.all(np.isfinite(m.imag))):
        raise ValueError(f"{name} has non-finite entries")
    return m


def _check_p(p, p_max=np.inf):
    """The one exponent validator: p as a float, or ValueError unless p is a real number in (0, p_max]."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise ValueError(f"exponent p must be a real number, got {p!r}")
    p = float(p)
    if not (p > 0) or not np.isfinite(p) or not np.isfinite(1.0 / p):
        raise ValueError(f"exponent p must be positive and finite with a finite reciprocal, got {p}")
    if p > p_max:
        raise ValueError(f"p must lie in (0, {p_max:g}], got {p}")
    return p


def _check_size(n, name="n", least=1):
    """The one integer validator: n as an int, or ValueError unless n is an integer (numpy integers
    included, bool not) and n >= least.  Sizes, levels and samples take 1, counts 0, offsets and seeds None."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    n = int(n)
    if least is not None and n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    return n


def schur_product(a, b):
    """Entrywise (Schur-Hadamard) product of two equally shaped matrices."""
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch in schur_product: {a.shape} vs {b.shape}")
    return a * b


def singular_values(a):
    """Singular values of ``a``, sorted nonincreasing.

    Every input goes to LAPACK's SVD via numpy.  It is backward stable: each
    value carries an absolute error of order max(shape) * eps * operator norm,
    so values at that level are rounding noise.  Non-convergence raises
    ``numpy.linalg.LinAlgError`` (it is never silently ignored).
    """
    return np.linalg.svd(_as_matrix(a), compute_uv=False)


def schatten_quasinorm(a, p):
    """Schatten quasinorm (sum of p-th powers of singular values)^(1/p).

    Defined for every p > 0; for p < 1 this is a quasinorm satisfying the
    p-triangle inequality.  The zero matrix returns 0.
    """
    p = _check_p(p)
    return _schatten_from_spectrum(singular_values(a), p)


def _schatten_from_spectrum(s, p):
    """(sum of s**p)^(1/p) for singular values s and a checked exponent p."""
    return float(np.sum(s**p)) ** (1.0 / p)


def chi_matrix(n):
    """n-by-n upper-triangular all-ones matrix (diagonal included).

    Entry (j, k) is 1 iff j <= k, 0-based.  Schur multiplication by this mask
    is the triangular projection.
    """
    n = _check_size(n)
    return np.triu(np.ones((n, n)))


def delta_matrix(n):
    """n-by-n anti-triangular 0/1 Hankel matrix: entry (j, k) is 1 iff j+k < n.

    This block carries every nonzero entry of the corresponding infinite
    matrix, so all its spectral quantities are exact.  It equals the Hankel
    matrix of the analytic Dirichlet kernel of length n, and it is chi_matrix(n)
    with the columns reversed, so both share one singular spectrum (mask_spectrum).
    """
    n = _check_size(n)
    idx = np.arange(n)
    return (np.add.outer(idx, idx) < n).astype(float)


def mask_spectrum(n):
    """Singular values of chi_matrix(n) and delta_matrix(n), nonincreasing, in
    closed form (no LAPACK): 1 / (2 sin((2j - 1) pi / (2(2n + 1)))), j = 1..n."""
    n = _check_size(n)
    j = np.arange(1, n + 1)
    return 0.5 / np.sin((2 * j - 1) * np.pi / (2.0 * (2 * n + 1)))


def triangular_projection(a):
    """Zero out the strictly lower triangle of a square matrix.

    Equals ``schur_product(chi_matrix(n), a)`` and is idempotent.
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"triangular_projection needs a square matrix, got shape {a.shape}")
    return np.triu(a)


def block_diag2(m):
    """Block-diagonal doubling diag(m, m); every singular value repeats twice."""
    m = _as_matrix(m)
    z = np.zeros_like(m)
    return np.block([[m, z], [z, m]])


def block2x2(a, b, c, d):
    """Assemble [[a, b], [c, d]] from four matrix blocks."""
    a, b, c, d = (_as_matrix(x, n) for x, n in zip((a, b, c, d), "abcd"))
    if a.shape[0] != b.shape[0] or c.shape[0] != d.shape[0]:
        raise ValueError(f"block2x2 row mismatch: {a.shape} {b.shape} / {c.shape} {d.shape}")
    if a.shape[1] != c.shape[1] or b.shape[1] != d.shape[1]:
        raise ValueError(f"block2x2 column mismatch: {a.shape} {b.shape} / {c.shape} {d.shape}")
    return np.block([[a, b], [c, d]])
