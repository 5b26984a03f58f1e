"""Closed-form native-space norm of the 1D objective vs quadrature.

Oracle: Fourier-quotient integral for translation-invariant kernels.  The
1D objective J(u) = -exp(-u^2) + 3 exp(-0.001 u^2) has transform
A e^{-w^2/4} + B e^{-250 w^2} with A = -1/sqrt(2), B = 3/sqrt(0.002)
(unitary-angular convention), and the Gaussian profile transforms to
(2 eps^2)^(-1/2) e^{-w^2/(4 eps^2)}.  The integrand's exponents are
combined per term before integrating to avoid overflow of the quotient.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from hermite_tr.surrogate import analytic_norm_1d_gaussian

A, RATE_A = -1.0 / np.sqrt(2.0), 0.25
B, RATE_B = 3.0 / np.sqrt(0.002), 250.0


def norm_squared_by_quadrature(eps):
    c = 1.0 / (4.0 * eps**2)
    pref = np.sqrt(2.0 * eps**2)

    def integrand(w):
        w2 = w * w
        return pref * (
            A * A * np.exp((c - 2 * RATE_A) * w2)
            + 2 * A * B * np.exp((c - RATE_A - RATE_B) * w2)
            + B * B * np.exp((c - 2 * RATE_B) * w2)
        )

    total, _ = quad(integrand, -np.inf, np.inf, limit=400)
    return total / np.sqrt(2.0 * np.pi)


@pytest.mark.parametrize("eps", [0.75, 1.0, 2.0])
def test_matches_quadrature(eps):
    oracle = np.sqrt(norm_squared_by_quadrature(eps))
    assert analytic_norm_1d_gaussian(eps) == pytest.approx(oracle, rel=1e-6)


def test_divergent_shape_raises():
    with pytest.raises(ValueError, match="divergent"):
        analytic_norm_1d_gaussian(0.7)
    with pytest.raises(ValueError):
        analytic_norm_1d_gaussian(1.0 / np.sqrt(2.0))


def test_positive_on_valid_range():
    for eps in np.linspace(0.72, 12.0, 25):
        assert analytic_norm_1d_gaussian(eps) > 0.0
