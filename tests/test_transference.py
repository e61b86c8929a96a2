"""Transference on 2n nodes: the Delta_n and Riesz identities, and the ceiling U_n(p) they share.

Let theta_s = pi s / n for s = 0..2n-1 and D_n(theta) = sum_{l<n} e^{-il theta}.
Averaging a matrix over the diagonal unitaries U_s = diag(e^{ij theta_s}) with
weights c_s = D_n(theta_s) / 2n gives the Schur product with Delta_n, because
the entry sums j + k <= 2n - 2 do not alias modulo 2n.  Averaging a degree < m
polynomial over its 2m translates with the analytic kernel D+_m gives its Riesz
projection, because the negative indices alias to l + 2m >= m + 1.  The
p-triangle inequality then bounds both operators at p <= 1 by
U_n(p) = (sum_s |c_s|^p)^{1/p}.  The identities are stated with numpy; the
library supplies the operators they are compared with, and the closed form
mask_multiplier_ceiling, which ``tritrunc multiplier-bound`` prints as its upper end.
"""

import math

import mpmath
import numpy as np
import pytest

from tritrunc.experiments import ExperimentConfig, run_experiment
from tritrunc.hankel import hankel_multiplier_upper
from tritrunc.kernels import dirichlet_plus
from tritrunc.matrices import delta_matrix, mask_multiplier_ceiling, mask_spectrum
from tritrunc.multipliers import random_witness_search
from tritrunc.trigpoly import TrigPoly, riesz_plus

from oracles import transference_ceiling


def nodes(n):
    return np.pi * np.arange(2 * n) / n


def complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n", [5, 9, 16])
def test_node_average_of_diagonal_conjugates_is_the_delta_mask(n):
    # sum_s c_s U_s B U_s = Delta_n o B (measured at most 1.5e-14)
    b = complex_gaussian(np.random.default_rng(n), (n, n))
    phases = np.exp(1j * np.outer(nodes(n), np.arange(n)))  # row s is the diagonal of U_s
    weights = phases.conj().sum(axis=1) / (2 * n)  # c_s = D_n(theta_s) / 2n
    average = np.einsum("s,sj,jk,sk->jk", weights, phases, b, phases)
    assert np.max(np.abs(average - delta_matrix(n) * b)) <= 1e-13


@pytest.mark.parametrize("m", [5, 16, 64])
def test_node_average_of_translates_is_the_riesz_projection(m):
    # the coefficients of (1/2m) sum_s D+_m(theta_s) f(. - theta_s) are those of P_+ f (measured at most 3.8e-14)
    f = complex_gaussian(np.random.default_rng(m), 2 * m - 1)  # indices -(m-1)..m-1
    theta = nodes(m)
    kernel = np.exp(1j * np.outer(theta, np.arange(m))).sum(axis=1)  # D+_m(theta_s)
    shifts = np.exp(-1j * np.outer(theta, np.arange(-(m - 1), m)))  # f(. - theta_s) multiplies f_l by e^{-il theta_s}
    average = (kernel[:, None] * shifts * f).sum(axis=0) / (2 * m)
    want = riesz_plus(TrigPoly(-(m - 1), f)).coefficients_on(-(m - 1), m - 1)
    assert np.max(np.abs(average - want)) <= 1e-13


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 1.0])
def test_the_ceiling_lies_between_the_lower_and_the_analytic_upper_end(p):
    # at k = 6: 84.69 <= 94.88 <= 199.58 at p = 1/2, and 2.0449 <= 2.3100 <= 2.6813 at p = 1
    for k in range(1, 9):
        n = 2**k + 1
        lower = random_witness_search(delta_matrix(n), p, 0, k).ratio
        upper = hankel_multiplier_upper(dirichlet_plus(n), p)
        assert lower <= transference_ceiling(n, p) <= upper, (k, lower, transference_ceiling(n, p), upper)


def test_the_ceiling_bounds_the_registered_riesz_ratios():
    # E6's ratios reach 0.160-0.176 of U_m(p) at p = 1/2, m = 2^k
    records = run_experiment(ExperimentConfig("E6")).records
    assert {r.quantity for r in records} == {"riesz_projection_ratio"}
    assert all(r.value < transference_ceiling(r.n, r.p) for r in records)


def mp_ceiling(n, p):
    with mpmath.workdps(30):
        p = mpmath.mpf(p)
        terms = (2 * n * mpmath.sin(mpmath.pi * s / (2 * n)) for s in range(1, 2 * n, 2))
        return (2**-p + mpmath.fsum(t**-p for t in terms)) ** (1 / p)


@pytest.mark.parametrize("p", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("n", [3, 65, 1025, 16385])
def test_closed_form_ceiling_is_within_its_stated_error(n, p):
    # the docstring's (6 + ln(n + 1) / 2) eps / p; measured at most 2.9 eps, at n = 16385, p = 1/4
    got = mask_multiplier_ceiling(n, p)
    want = mp_ceiling(n, p)
    bound = (6 + math.log(n + 1) / 2) * np.finfo(float).eps / p
    assert abs(float((got - want) / want)) <= bound


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 1.0])
def test_closed_form_ceiling_is_the_oracle_sum(p):
    # the oracle sums all n odd terms; the library sums half of them, doubled
    for n in [*range(1, 40), 64, 65, 256, 257, 1024, 1025]:
        assert mask_multiplier_ceiling(n, p) == pytest.approx(transference_ceiling(n, p), rel=1e-13, abs=0), n


def test_closed_form_ceiling_at_p_one_and_size_one():
    # U_3(1) = 1/2 + 2/6 + 1/6 = 4/3 (s = 1, 5 and s = 3), and U_1(p) = (2 * 2^-p)^(1/p) = 2^(1/p - 1)
    assert mask_multiplier_ceiling(3, 1.0) == pytest.approx(4 / 3, rel=4e-16, abs=0)
    for p in (0.25, 0.5, 1.0):
        assert mask_multiplier_ceiling(1, p) == pytest.approx(2.0 ** (1 / p - 1), rel=6 * 2.2e-16 / p, abs=0)


def test_closed_form_ceiling_closes_on_the_all_ones_lower_end_at_k_20():
    # U_n(1/2) over S_1/2(Delta_n) / n at n = 2^20 + 1 reads 1.00094, from closed forms alone
    n, p = 2**20 + 1, 0.5
    lower = float(np.sum(mask_spectrum(n) ** p) ** (1 / p)) / n
    assert 1 < mask_multiplier_ceiling(n, p) / lower <= 1.001


@pytest.mark.parametrize("p", [2.0, 1.0000001, 0.0, -0.5, float("nan"), True, "0.5"])
def test_closed_form_ceiling_rejects_an_exponent_outside_zero_one(p):
    with pytest.raises(ValueError, match="p must"):
        mask_multiplier_ceiling(9, p)


@pytest.mark.parametrize("n", [0, -3, 2.5, True, "9"])
def test_closed_form_ceiling_rejects_a_bad_size(n):
    with pytest.raises(ValueError, match="n must"):
        mask_multiplier_ceiling(n, 0.5)


def test_closed_form_ceiling_beyond_the_double_range_raises():
    # the power sum is about n + 1 at small p, and 4^(1/0.0017) overflows a double
    with pytest.raises(OverflowError, match=r"at p=0\.0017 leaves the double range"):
        mask_multiplier_ceiling(3, 0.0017)
