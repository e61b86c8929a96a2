"""Independent oracles for the dual-route checks.

Nothing here imports the production numerics it is meant to check: singular
values come from a from-scratch one-sided Jacobi iteration, grid values from
direct Horner summation or long-double FFTs, and the reference RNG streams
from pure-Python integer arithmetic (the Gaussians from Box-Muller written out
over the stream's uniforms).  The closed forms are written from their
formulas alone, and the true norm's ascent (``ascent``) iterates on numpy's
SVD of the dense D_u chi_n D_v.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1


def jacobi_singular_values(a, tol=1e-14, max_sweeps=60):
    """Singular values via one-sided Jacobi on the columns of a working copy.

    Rotation pairs are processed cyclically until every pair of columns x, y
    is orthogonal to working precision relative to its own norms,
    |<x, y>| <= tol * ||x|| ||y|| (Demmel & Veselic 1992; sweep cap 60).  The
    relative test also rotates apart columns whose norms sit far below
    ||A||, which is what gives high relative accuracy on small singular
    values and makes it a fair referee for quasinorms with p < 1.
    """
    w = np.array(a, dtype=complex)
    if w.shape[0] < w.shape[1]:
        w = w.conj().T.copy()
    n = w.shape[1]
    for _ in range(max_sweeps):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                x = w[:, i].copy()  # copies: the rotation writes both columns
                y = w[:, j].copy()
                gamma = np.vdot(x, y)
                alpha = np.vdot(x, x).real
                beta = np.vdot(y, y).real
                if abs(gamma) <= tol * np.sqrt(alpha * beta):
                    continue
                rotated = True
                phase = gamma / abs(gamma)
                yp = y * np.conj(phase)  # now <x, yp> = |gamma| is real
                tau = (beta - alpha) / (2.0 * abs(gamma))
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                w[:, i] = c * x - s * yp
                w[:, j] = s * x + c * yp
        if not rotated:
            break
    sv = np.sqrt(np.sum(np.abs(w) ** 2, axis=0))
    return np.sort(sv)[::-1]


def direct_grid_eval(f, n_samples, half_shift=False):
    """Horner summation of f at the (optionally midpoint-shifted) grid."""
    n = int(n_samples)
    k = np.arange(n)
    theta = 2.0 * np.pi * (k + (0.5 if half_shift else 0.0)) / n
    z = np.exp(1j * theta)
    acc = np.zeros(n, dtype=complex)
    for c in f.coeffs[::-1]:
        acc = acc * z + c
    return acc * z ** float(f.lo)


def direct_lp(f, p, n_samples):
    vals = np.abs(direct_grid_eval(f, n_samples, half_shift=True))
    return float(np.mean(vals ** float(p)) ** (1.0 / float(p)))


def longdouble_lp(f, p, n_samples):
    """The N-point midpoint L^p sum of lp_quasinorm, evaluated in long double.

    Node k = l + rows*j, with m = 2^a <= 1024 dividing N and rows = N/m, sits
    at theta_k = pi(2l+1)/N + 2 pi j/m, so row l is the length-m inverse DFT of
    the coefficients c_t e^{i pi t(2l+1)/N} aliased modulo m.  Every angle is
    reduced exactly in integers and its exponential taken in long double, as
    are the FFTs, |.|^p and the sum; z^lo is unimodular and dropped.
    """
    n = int(n_samples)
    c = f.coeffs.astype(np.clongdouble)
    m = min(n & -n, 1024)
    rows, width = n // m, -(-c.size // m) * m
    t = np.arange(c.size)
    pi = np.arccos(np.longdouble(-1.0))
    block = 64  # rows per pass

    def turn(a):  # e^{i pi a / N} for integer a
        return np.exp(1j * (pi * (a % (2 * n)) / n))

    table = turn(2 * np.outer(np.arange(block), t))
    total = np.longdouble(0.0)
    for l0 in range(0, rows, block):
        r = min(block, rows - l0)
        tw = np.zeros((r, width), dtype=np.clongdouble)
        tw[:, : c.size] = table[:r] * (c * turn(t * (2 * l0 + 1)))
        vals = np.abs(np.fft.ifft(tw.reshape(r, -1, m).sum(axis=1), axis=1, norm="forward"))
        total += np.sum(vals ** np.longdouble(p))
    return (total / n) ** (1 / np.longdouble(p))


def dirichlet_lp_closed_form(n, p, n_samples):
    """L^p of the length-n analytic Dirichlet kernel from |sin(n t/2)/sin(t/2)|."""
    m = int(n_samples)
    theta = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    mag = np.abs(np.sin(0.5 * n * theta) / np.sin(0.5 * theta))
    return float(np.mean(mag ** float(p)) ** (1.0 / float(p)))


def trimmed_triu_spectrum(x, y):
    """The n singular values of triu(x y^T), x, y >= 0 of length n, nonincreasing: numpy's SVD of the
    matrix with its zero rows and columns dropped, then exact zeros, one per dropped rank."""
    t = np.triu(np.outer(x, y))
    t = t[np.ix_(t.any(axis=1), t.any(axis=0))]
    s = np.linalg.svd(t, compute_uv=False) if t.size else np.zeros(0)
    return np.concatenate((s, np.zeros(len(x) - s.size)))


def jump_mass(p):
    """J_p = (1/2 pi) int |1 - e^{i theta}|^{-p} d theta = Gamma(1-p) / Gamma(1-p/2)^2, the L^p mass of a
    unit jump in the coefficients; by Legendre's duplication formula it is C_p^p."""
    return math.gamma(1.0 - p) / math.gamma(1.0 - p / 2.0) ** 2


def transference_ceiling(n, p):
    """U_n(p) = (2^{-p} + sum over odd s < 2n of (2n sin(pi s / 2n))^{-p})^{1/p}.

    The node weights |D_n(theta_s)| / 2n of the length-n Dirichlet kernel at
    theta_s = pi s / n: 1/2 at s = 0, 1 / (2n sin(pi s / 2n)) at odd s, and 0
    at even s > 0.  At p <= 1 the p-triangle inequality over the 2n nodes
    bounds the mask Delta_n's multiplier norm on S_p, and the Riesz
    projection on degree < n polynomials in L^p, by it.
    """
    s = np.arange(1, 2 * n, 2)
    return float((2.0**-p + np.sum((2 * n * np.sin(np.pi * s / (2 * n))) ** -p)) ** (1 / p))


def ascent(n, p, u, v):
    """The ratios S_p(D_u chi_n D_v) over unit u, v, from the start to the step that moves
    the ratio by at most 1e-15 relative, or to step 500: the fixed-point ascent for a p-norm
    (Boyd 1974), applied to S_p.  With W S Z^T the SVD of D_u chi_n D_v, its rounding-floor values
    dropped, and G = W S^{p-1} Z^T, a step sets u <- |(G o chi_n) v|, then v <- |(G o chi_n)^T u|,
    each normalized.  Each ratio is a lower end for the multiplier norm of chi_n on S_p, p <= 1."""
    chi = np.triu(np.ones((n, n)))
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    ratios = []
    for _ in range(501):
        w, s, zt = np.linalg.svd(u[:, None] * chi * v)
        ratios.append(float(np.sum(s**p) ** (1.0 / p)))
        if len(ratios) > 1 and abs(ratios[-1] - ratios[-2]) <= 1e-15 * ratios[-2]:
            break
        keep = s > n * np.finfo(float).eps * s[0]
        g = (w[:, keep] * s[keep] ** (p - 1.0)) @ zt[keep] * chi
        u = np.abs(g @ v)
        u /= np.linalg.norm(u)
        v = np.abs(g.T @ u)
        v /= np.linalg.norm(v)
    return ratios


def splitmix64_reference(seed, count, start=1):
    """Pure-python SplitMix64 outputs for indices start..start+count-1."""
    out = []
    for i in range(start, start + count):
        x = (seed + i * 0x9E3779B97F4A7C15) & _MASK64
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & _MASK64
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
        out.append(x)
    return out


def uniform53_reference(seed, count):
    return [((x >> 11) + 1) * 2.0 ** -53 for x in splitmix64_reference(seed, count)]


def normal_reference(gen, count):
    """count standard normals by Box-Muller on gen's next 2 * ceil(count / 2)
    uniforms: radii from the first half, angles from the second, cosines then
    sines, the odd tail dropped.  Each part of SplitMix64.complex_normal(count)
    is one such call, the real part's first."""
    half = (count + 1) // 2
    u = gen.uniform(2 * half)
    r, theta = np.sqrt(-2.0 * np.log(u[:half])), 2.0 * np.pi * u[half:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:count]


def _tagged(part):
    import struct

    if isinstance(part, str):
        return b"s" + part.encode("utf-8")
    if isinstance(part, (int, np.integer)):
        return b"i" + int(part).to_bytes(8, "little", signed=True)
    if isinstance(part, float):
        return b"f" + struct.pack("<d", part)
    raise TypeError(type(part).__name__)


def derive_seed_reference(*parts):
    """FNV-1a 64 over the concatenated tagged encodings (single pass)."""
    blob = b"".join(_tagged(p) + b"\xff" for p in parts)
    h = 0xCBF29CE484222325
    for byte in blob:
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h
