"""Kernel closed forms against finite-difference and analytic oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_tr import kernels
from hermite_tr.kernels import KernelSpec, make_kernel

from conftest import ALL_FAMILIES, kernel_for
from oracles import cross_hessian, grad1, value


def fd_grad1(kernel, x, y, h=1e-6):
    """Central finite differences of value() in the first argument."""
    g = np.zeros(kernel.dim)
    for i in range(kernel.dim):
        e = np.zeros(kernel.dim)
        e[i] = h
        g[i] = (value(kernel, x + e, y) - value(kernel, x - e, y)) / (2 * h)
    return g


def fd_cross_hessian(kernel, x, y, h=1e-5):
    """Second-order central differences, one step in each argument."""
    H = np.zeros((kernel.dim, kernel.dim))
    for i in range(kernel.dim):
        for j in range(kernel.dim):
            ei = np.zeros(kernel.dim)
            ej = np.zeros(kernel.dim)
            ei[i] = h
            ej[j] = h
            H[i, j] = (
                value(kernel, x + ei, y + ej)
                - value(kernel, x + ei, y - ej)
                - value(kernel, x - ei, y + ej)
                + value(kernel, x - ei, y - ej)
            ) / (4 * h * h)
    return H


class TestValues:
    def test_gaussian_diag(self):
        k = make_kernel("gaussian", 1.0, 1)
        assert value(k, [0.3], [0.3]) == 1.0

    def test_quad_matern_diag(self):
        k = make_kernel("quad_matern", 0.7, 2)
        assert value(k, [0.1, 0.2], [0.1, 0.2]) == 3.0

    def test_wendland_diag_matches_smoothness_index(self):
        for dim in (1, 2, 3, 5):
            k = make_kernel("wendland2", 0.5, dim)
            l = dim // 2 + 3
            assert value(k, np.zeros(dim), np.zeros(dim)) == pytest.approx(
                3.0 * (l + 1) * (l + 2) * (l + 3) * (l + 4)
            )

    def test_gaussian_unit_distance(self):
        # closed form evaluated independently: exp(-eps^2 * 1)
        k = make_kernel("gaussian", 1.0, 1)
        assert value(k, [0.0], [1.0]) == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_wendland_compact_support(self, rng):
        k = make_kernel("wendland2", 2.0, 2)
        for _ in range(20):
            x = rng.uniform(-1, 1, 2)
            d = rng.normal(size=2)
            d *= (0.5 + rng.uniform()) / (2.0 * np.linalg.norm(d))  # r >= 1/eps
            y = x + d
            if 2.0 * np.linalg.norm(x - y) >= 1.0:
                assert value(k, x, y) == 0.0

    def test_dimension_mismatch(self):
        k = make_kernel("gaussian", 1.0, 2)
        with pytest.raises(ValueError):
            value(k, [0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            grad1(k, [0.0, 1.0, 2.0], [1.0, 2.0])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(family="gaussian", shape=-1.0, dim=1)
        with pytest.raises(ValueError):
            KernelSpec(family="nope", shape=1.0, dim=1)
        with pytest.raises(ValueError):
            KernelSpec(family="gaussian", shape=1.0, dim=0)

        # finite shapes whose profiles overflow at r = 0, where each peaks
        for family, huge, dim in [("gaussian", 1.0e100, 1), ("quad_matern", 1.0e100, 2),
                                  ("wendland2", 1.0e76, 2)]:
            with pytest.raises(ValueError, match="overflows the"):
                KernelSpec(family=family, shape=huge, dim=dim)
            assert KernelSpec(family=family, shape=1.0e50, dim=dim).cross_diag > 0.0


class TestSymmetry:
    def test_bitwise_symmetry(self, family, rng):
        k = kernel_for(family, 3)
        for _ in range(200):
            x = rng.uniform(-2, 2, 3)
            y = rng.uniform(-2, 2, 3)
            assert value(k, x, y) == value(k, y, x)

    def test_grad1_antisymmetric(self, family, rng):
        k = kernel_for(family, 2)
        for _ in range(200):
            x = rng.uniform(-2, 2, 2)
            y = rng.uniform(-2, 2, 2)
            assert np.array_equal(grad1(k, x, y), -grad1(k, y, x))

    @settings(max_examples=60, deadline=None)
    @given(
        xs=st.lists(st.floats(-3, 3), min_size=2, max_size=2),
        ys=st.lists(st.floats(-3, 3), min_size=2, max_size=2),
        shape=st.floats(0.1, 4.0),
    )
    def test_symmetry_property(self, xs, ys, shape):
        k = make_kernel("quad_matern", shape, 2)
        x, y = np.array(xs), np.array(ys)
        assert value(k, x, y) == value(k, y, x)


class TestDerivatives:
    def test_grad1_zero_at_diagonal(self, family):
        k = kernel_for(family, 3)
        x = np.array([0.4, -0.2, 1.1])
        assert np.all(grad1(k, x, x) == 0.0)

    def test_gaussian_grad1_closed_form(self):
        k = make_kernel("gaussian", 1.0, 1)
        assert grad1(k, [0.0], [1.0])[0] == pytest.approx(2.0 * np.exp(-1.0), rel=1e-14)

    def test_grad1_finite_difference(self, family, rng):
        k = kernel_for(family, 2)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, 2)
            y = rng.uniform(-1.5, 1.5, 2)
            exact = grad1(k, x, y)
            approx = fd_grad1(k, x, y)
            worst = max(worst, np.max(np.abs(exact - approx)) / (1.0 + np.max(np.abs(exact))))
        assert worst <= 1e-6

    def test_gaussian_cross_hessian_diagonal(self):
        for eps in (0.5, 1.0, 2.3):
            k = make_kernel("gaussian", eps, 3)
            x = np.array([0.1, 0.2, -0.5])
            np.testing.assert_allclose(
                cross_hessian(k, x, x), 2.0 * eps**2 * np.eye(3), rtol=1e-14
            )

    def test_cross_hessian_diag_spd(self, family):
        k = kernel_for(family, 2)
        x = np.array([0.3, -0.7])
        H = cross_hessian(k, x, x)
        assert np.array_equal(H, H.T)
        assert np.all(np.diag(H) > 0)
        assert np.all(np.linalg.eigvalsh(H) > 0)

    def test_cross_hessian_finite_difference(self, family, rng):
        k = kernel_for(family, 2)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, 2)
            y = rng.uniform(-1.5, 1.5, 2)
            exact = cross_hessian(k, x, y)
            approx = fd_cross_hessian(k, x, y)
            worst = max(worst, np.max(np.abs(exact - approx)) / (1.0 + np.max(np.abs(exact))))
        assert worst <= 1e-4

    def test_cross_diag_matches_profile(self, family, rng):
        # the constants the Jacobi scaling and the power function read are
        # the diagonals of the pointwise kernel and cross Hessian
        for dim in (1, 2, 3, 5):
            for shape in (0.4, 0.9, 2.0):
                k = kernel_for(family, dim, shape)
                x = rng.uniform(-1.5, 1.5, dim)
                assert k.diag_value == value(k, x, x)
                assert np.all(np.diag(cross_hessian(k, x, x)) == k.cross_diag)
                # closed forms at r = 0
                eps, l = shape, dim // 2 + 3
                c = (l + 1) * (l + 2) * (l + 3) * (l + 4)
                diag, cross = {"gaussian": (1.0, 2.0 * eps**2),
                               "quad_matern": (3.0, eps**2),
                               "wendland2": (3.0 * c, c * eps**2 * (l + 3) * (l + 4))}[family]
                assert k.diag_value == pytest.approx(diag, rel=1e-15)
                assert k.cross_diag == pytest.approx(cross, rel=1e-14)

    def test_diagonal_constants_computed_once(self, family, monkeypatch):
        calls = []
        profiles = kernels.radial_profiles

        def counted(kernel, r):
            calls.append(r)
            return profiles(kernel, r)

        monkeypatch.setattr(kernels, "radial_profiles", counted)
        k = kernel_for(family, 2)
        first = (k.diag_value, k.cross_diag)
        for _ in range(3):
            assert (k.diag_value, k.cross_diag) == first
        assert calls == [0.0]   # the overflow check's profiles at r = 0 serve both


class TestPositiveDefiniteness:
    def test_plain_gram_spd_sampling(self, family, rng):
        k = kernel_for(family, 2)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            pts = rng.uniform(-2, 2, (n, 2))
            gram = np.array([[value(k, a, b) for b in pts] for a in pts])
            assert np.linalg.eigvalsh(gram).min() > -1e-12


class TestContinuityBounds:
    def test_gaussian_kernel_lipschitz(self, rng):
        # C_k from maximizing |d/dr exp(-eps^2 r^2)| = sqrt(2) eps e^{-1/2}
        eps = 1.3
        k = make_kernel("gaussian", eps, 2)
        c_k = np.sqrt(2.0) * eps * np.exp(-0.5)
        for _ in range(1000):
            x = rng.uniform(-2, 2, 2)
            y = rng.uniform(-2, 2, 2)
            y2 = rng.uniform(-2, 2, 2)
            lhs = abs(value(k, x, y) - value(k, x, y2))
            assert lhs <= c_k * np.linalg.norm(y - y2) * (1.0 + 1e-12)

    def test_power_function_hoelder(self, rng):
        # |P(x) - P(y)| <= 4 sqrt(C_k) ||x - y||^(1/2) for a fixed center set
        from hermite_tr.surrogate import TrainingSet, fit

        eps = 1.0
        k = make_kernel("gaussian", eps, 2)
        c_k = np.sqrt(2.0) * eps * np.exp(-0.5)
        pts = rng.uniform(-2, 2, (6, 2))
        vals = rng.normal(size=6)
        grads = rng.normal(size=(6, 2))
        s = fit(k, TrainingSet(pts, vals, grads), norm_bound=1.0)
        bound = 4.0 * np.sqrt(c_k)
        for _ in range(1000):
            x = rng.uniform(-2, 2, 2)
            y = rng.uniform(-2, 2, 2)
            lhs = abs(s.power(x) - s.power(y))
            assert lhs <= bound * np.sqrt(np.linalg.norm(x - y)) + 1e-12
