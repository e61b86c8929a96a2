"""The paper's two results to their O(1) term, from closed forms.

Both ends of the interval for ||P_n|| on S_p are midpoint sums of sin^{-p}
with an x^{-p} endpoint singularity: the node ceiling U_n = U_n(p) and the
all-ones lower end L_n = S_p(Delta_n) / n.  The generalized Euler-Maclaurin
formula (Navot 1961; Lyness & Ninham 1967) gives their second terms through
the Riemann zeta function.  With C_p^p = Gamma(1-p) / Gamma(1-p/2)^2:

    U_n^p = C_p^p n^{1-p} + c_U(p) + o(1),  c_U(p) = 2^{-p} + 2 pi^{-p} (1 - 2^{-p}) zeta(p),
    L_n^p = C_p^p n^{1-p} + c_L(p) + ((C_p^p - 2^{-p}) / 2) n^{-p} + o(n^{-p}),
            c_L(p) = pi^{-p} (2^p - 1) zeta(p).

So ||P_n||^p = C_p^p n^{1-p} + O(1) with both O(1) ends in closed form, and
n^{1-1/p} ||P_n|| -> C_p.  c_U changes sign at p* = 0.5967139, so above p* the
ceiling sits below C_p n^{1/p-1}.  The closed forms are written here from their
formulas; the library supplies the mask spectrum alone.
"""

import math

import mpmath
import numpy as np
import pytest

from oracles import jump_mass, transference_ceiling
from tritrunc.matrices import mask_spectrum

EXPONENTS = [0.25, 0.5, 2.0 / 3.0, 0.75, 0.9]
LEVELS = range(6, 17, 2)


def c_upper(p):
    return 2.0**-p + 2.0 * math.pi**-p * (1.0 - 2.0**-p) * float(mpmath.zeta(p))


def c_lower(p):
    return math.pi**-p * (2.0**p - 1.0) * float(mpmath.zeta(p))


def lower_end(n, p):
    return float(np.sum(mask_spectrum(n) ** p) ** (1.0 / p)) / n


@pytest.mark.parametrize("p", EXPONENTS)
def test_the_ceiling_is_two_closed_form_terms_to_1e_5(p):
    # measured at most 4.9e-6 (k = 6, p = 0.9), about 16 times smaller every two levels
    for k in LEVELS:
        n = 2**k + 1
        assert abs(transference_ceiling(n, p) ** p - jump_mass(p) * n ** (1.0 - p) - c_upper(p)) <= 1e-5, k


@pytest.mark.parametrize("p", EXPONENTS)
def test_the_lower_end_remainder_after_three_terms_shrinks_at_every_level(p):
    # at p = 1/2 it reads 1.3e-3 at k = 6 and 1.3e-6 at k = 16
    cp = jump_mass(p)
    rests = [
        abs(lower_end(n, p) ** p - cp * n ** (1.0 - p) - c_lower(p) - (cp - 2.0**-p) / 2.0 * n**-p)
        for n in (2**k + 1 for k in LEVELS)
    ]
    assert all(b < a for a, b in zip(rests, rests[1:])), rests


def test_the_ceiling_constant_changes_sign_between_one_half_and_two_thirds():
    assert c_upper(0.5) == pytest.approx(0.224467, abs=1e-6)
    assert c_upper(2.0 / 3.0) == pytest.approx(-0.214505, abs=1e-6)
    # the crossover p* = 0.5967139 (mpmath root)
    assert c_upper(0.59671) > 0.0 > c_upper(0.59672)


@pytest.mark.parametrize("p", [0.6, 2.0 / 3.0, 0.75, 0.9])
def test_above_the_crossover_the_ceiling_lies_below_the_main_term(p):
    # every n in 2..299; at p = 0.6 the one exception is n = 1
    cp = jump_mass(p) ** (1.0 / p)
    over = [n for n in range(2, 300) if not transference_ceiling(n, p) < cp * n ** (1.0 / p - 1.0)]
    assert over == []


@pytest.mark.parametrize("p", [0.5, 2.0 / 3.0, 0.75])
def test_both_normalized_ends_approach_the_main_theorem_constant(p):
    # at p = 1/2 the lower end goes 0.982403 -> 0.999718 C_p and the upper end
    # 1.011915 -> 1.000186 C_p; at p = 3/4 both stay below C_p, as c_U < 0 says
    cp = jump_mass(p) ** (1.0 / p)
    ns = [2**k + 1 for k in (10, 14, 18, 22)]
    lower = [lower_end(n, p) / n ** (1.0 / p - 1.0) for n in ns]
    upper = [transference_ceiling(n, p) / n ** (1.0 / p - 1.0) for n in ns]
    for ends in (lower, upper):
        gaps = [abs(e - cp) for e in ends]
        assert all(b < a for a, b in zip(gaps, gaps[1:])), ends
    assert max(lower) < cp
