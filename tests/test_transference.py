"""Transference on 2n nodes: the Delta_n and Riesz identities, and the ceiling U_n(p) they share.

Let theta_s = pi s / n for s = 0..2n-1 and D_n(theta) = sum_{l<n} e^{-il theta}.
Averaging a matrix over the diagonal unitaries U_s = diag(e^{ij theta_s}) with
weights c_s = D_n(theta_s) / 2n gives the Schur product with Delta_n, because
the entry sums j + k <= 2n - 2 do not alias modulo 2n.  Averaging a degree < m
polynomial over its 2m translates with the analytic kernel D+_m gives its Riesz
projection, because the negative indices alias to l + 2m >= m + 1.  The
p-triangle inequality then bounds both operators at p <= 1 by
U_n(p) = (sum_s |c_s|^p)^{1/p}.  The identities are stated with numpy; the
library supplies only the operators they are compared with.
"""

import numpy as np
import pytest

from tritrunc.experiments import ExperimentConfig, run_experiment
from tritrunc.kernels import dirichlet_plus
from tritrunc.matrices import delta_matrix
from tritrunc.multipliers import hankel_multiplier_upper, random_witness_search
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
