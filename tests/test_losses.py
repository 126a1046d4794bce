import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localgd import losses
from localgd.data import FederatedDataset, RawSample, prepare, compute_margin

from conftest import random_dataset, separable_dataset


class TestScalarLoss:
    def test_value_at_zero(self):
        assert losses.ell(0.0) == pytest.approx(math.log(2), abs=1e-15)

    def test_softplus_shift_identity(self):
        # ell(-z) = ell(z) + z
        assert losses.ell(-5.0) - losses.ell(5.0) == pytest.approx(5.0, abs=1e-12)

    @given(st.floats(-30, 30))
    @settings(max_examples=200, deadline=None)
    def test_softplus_shift_identity_everywhere(self, z):
        lhs = losses.ell(-z) - losses.ell(z)
        assert lhs == pytest.approx(z, abs=1e-12)

    def test_large_argument_matches_extended_precision(self):
        with mpmath.workdps(60):
            expected = float(mpmath.log1p(mpmath.exp(-100)))
        got = losses.ell(100.0)
        assert abs(got - expected) <= 1e-10 * expected
        # at this magnitude the loss is exp(-100) to first order
        assert got == pytest.approx(math.exp(-100), rel=1e-10)

    def test_no_overflow_across_range(self):
        z = np.array([-700.0, -100.0, 0.0, 100.0, 700.0])
        out = losses.ell(z)
        assert np.all(np.isfinite(out))
        assert np.all(np.diff(out) <= 0)  # monotone decreasing

    def test_derivatives_at_zero(self):
        assert losses.ell_prime(0.0) == pytest.approx(-0.5, abs=1e-15)
        assert losses.ell_double_prime(0.0) == pytest.approx(0.25, abs=1e-15)

    def test_first_derivative_extended_precision(self):
        with mpmath.workdps(60):
            expected = float(-1 / (mpmath.exp(-10) + 1))
        assert expected == pytest.approx(-0.9999546021312976, abs=1e-15)
        assert losses.ell_prime(-10.0) == pytest.approx(expected, abs=1e-14)

    def test_derivative_chain_at_point(self):
        z = 3.7
        lpp, lp, l = losses.ell_double_prime(z), abs(losses.ell_prime(z)), losses.ell(z)
        assert 0 < lpp <= lp <= l

    def test_derivative_chain_randomized(self, rng):
        z = rng.uniform(-30, 30, size=1000)
        lpp = losses.ell_double_prime(z)
        lp = np.abs(losses.ell_prime(z))
        l = losses.ell(z)
        assert np.all(lpp > 0)
        assert np.all(lpp <= lp + 1e-15)
        assert np.all(lp <= l + 1e-15)
        nonneg = z >= 0
        assert np.all(l[nonneg] <= 2 * lp[nonneg] + 1e-15)

    def test_ranges(self, rng):
        # strict bounds hold where float64 can represent them; beyond |z|~37
        # ell_prime saturates to exactly -1 or -0
        z = rng.uniform(-30, 30, size=500)
        lp = losses.ell_prime(z)
        lpp = losses.ell_double_prime(z)
        assert np.all((lp > -1) & (lp < 0))
        assert np.all((lpp > 0) & (lpp <= 0.25))
        wide = losses.ell_prime(rng.uniform(-700, 700, size=500))
        assert np.all((wide >= -1) & (wide <= 0))


class TestObjective:
    def test_value_at_origin_is_log2(self, rng):
        ds = random_dataset(rng, M=3, n=4, d=5)
        rep = losses.objective(ds, np.zeros(5))
        assert rep.value == pytest.approx(math.log(2), abs=1e-15)
        assert rep.per_client_values == pytest.approx([math.log(2)] * 3)

    def test_gradient_at_origin(self, rng):
        ds = random_dataset(rng, M=2, n=3, d=4)
        rep = losses.objective(ds, np.zeros(4))
        expected = -0.5 * np.mean([Z.mean(axis=0) for Z in ds.clients], axis=0)
        np.testing.assert_allclose(rep.grad, expected, atol=1e-15)

    def test_value_is_mean_of_clients(self, rng):
        ds = random_dataset(rng, M=4, n=2, d=3)
        w = rng.normal(size=3)
        rep = losses.objective(ds, w)
        assert rep.value == pytest.approx(np.mean(rep.per_client_values), abs=1e-12)
        assert rep.grad_norm == pytest.approx(np.linalg.norm(rep.grad), rel=1e-12)

    def test_gradient_matches_central_differences(self, rng):
        ds = random_dataset(rng, M=2, n=3, d=4)
        w = rng.normal(size=4)
        rep = losses.objective(ds, w)
        h = 1e-6
        fd = np.zeros(4)
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd[i] = (losses.objective(ds, w + e).value - losses.objective(ds, w - e).value) / (2 * h)
        np.testing.assert_allclose(rep.grad, fd, atol=1e-6)

    def test_gradient_matches_differences_at_many_points(self, rng):
        ds = random_dataset(rng, M=3, n=2, d=3)
        h = 1e-6
        for _ in range(20):
            w = rng.normal(size=3) * rng.uniform(0.1, 3)
            rep = losses.objective(ds, w)
            fd = np.zeros(3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd[i] = (losses.objective(ds, w + e).value - losses.objective(ds, w - e).value) / (2 * h)
            np.testing.assert_allclose(rep.grad, fd, rtol=1e-5, atol=1e-9)

    def test_dimension_mismatch(self, rng):
        ds = random_dataset(rng, d=4)
        with pytest.raises(ValueError):
            losses.objective(ds, np.zeros(3))

    def test_gradient_norm_bounded_by_objective(self, rng):
        # per-client and global gradient norms never exceed the loss
        for _ in range(50):
            ds = random_dataset(rng, M=2, n=3, d=4)
            w = rng.normal(size=4) * rng.uniform(0, 4)
            rep = losses.objective(ds, w)
            assert rep.grad_norm <= rep.value + 1e-12
            for m in range(ds.M):
                gm = np.linalg.norm(losses.client_gradient(ds, m, w))
                assert gm <= rep.per_client_values[m] + 1e-12

    def test_gradient_lower_bound_with_margin(self, rng):
        ds = separable_dataset(rng, M=2, n=3, d=4)
        gamma, w_star = compute_margin(ds)
        for t in (1.0, 5.0, 25.0):
            w = t * w_star
            assert losses.min_margin(ds, w) >= 0
            rep = losses.objective(ds, w)
            assert rep.grad_norm >= (gamma / 2) * rep.value - 1e-9


class TestHessian:
    def test_hvp_zero_vector(self, rng):
        ds = random_dataset(rng, d=4)
        np.testing.assert_array_equal(
            losses.hessian_vector_product(ds, rng.normal(size=4), np.zeros(4)),
            np.zeros(4),
        )

    def test_hvp_single_sample_rank_one(self):
        z = np.array([0.6, -0.8])
        ds = prepare([(RawSample(z, 1), 0)])
        zs = ds.clients[0][0]
        v = np.array([1.0, 2.0])
        hv = losses.hessian_vector_product(ds, np.zeros(2), v)
        np.testing.assert_allclose(hv, 0.25 * (zs @ v) * zs, atol=1e-15)

    def _dense_hessian(self, ds, w):
        H = np.zeros((ds.d, ds.d))
        for Z in ds.clients:
            coeff = losses.ell_double_prime(Z @ w)
            H += (Z.T * coeff) @ Z / Z.shape[0]
        return H / ds.M

    def test_hvp_matches_dense_oracle(self, rng):
        ds = random_dataset(rng, M=2, n=4, d=3)
        w = rng.normal(size=3)
        H = self._dense_hessian(ds, w)
        for _ in range(5):
            v = rng.normal(size=3)
            np.testing.assert_allclose(
                losses.hessian_vector_product(ds, w, v), H @ v, atol=1e-12
            )

    def test_spectral_norm_single_sample(self):
        ds = prepare([(RawSample(np.array([3.0, 4.0]), -1), 0)])
        # after scaling the sample is unit norm, so the top eigenvalue is 1/4
        assert losses.hessian_spectral_norm(ds, np.zeros(2)) == pytest.approx(0.25, rel=1e-8)

    def test_spectral_norm_single_sample_general_norm(self):
        ds = FederatedDataset(clients=[np.array([[0.3, 0.4]])], d=2)
        expected = (0.3**2 + 0.4**2) / 4
        assert losses.hessian_spectral_norm(ds, np.zeros(2)) == pytest.approx(expected, rel=1e-8)

    def test_spectral_norm_of_one_zero_sum_sample_at_zero(self):
        # each z sums to 0 and has rank-one Hessian ell''(0) z z^T at w = 0, whose top
        # eigenvalue is 0.25 * ||z||^2
        for z, expected in (((0.5, -0.5), 0.125), ((0, 0.5, -0.5), 0.125),
                            ((0, 0.25, 0.5, -0.75), 0.21875)):
            ds = FederatedDataset(clients=[np.array([z])], d=len(z))
            w = np.zeros(len(z))
            assert losses.hessian_spectral_norm(ds, w) == pytest.approx(expected, rel=1e-12), z
            assert losses.client_hessian_spectral_norm(ds, 0, w) == pytest.approx(
                expected, rel=1e-12), z

    def test_spectral_norms_match_a_dense_eigendecomposition(self):
        rng = np.random.default_rng(30)
        for _ in range(1000):
            d = int(rng.integers(2, 8))
            ds = random_dataset(rng, M=int(rng.integers(1, 4)), n=int(rng.integers(1, 5)), d=d)
            w = rng.normal(size=d) * rng.uniform(0, 4)
            expected = np.linalg.eigvalsh(self._dense_hessian(ds, w))[-1]
            assert losses.hessian_spectral_norm(ds, w) == pytest.approx(expected, rel=1e-12)
            for m, Z in enumerate(ds.clients):
                client = FederatedDataset(clients=[Z], d=d)
                expected = np.linalg.eigvalsh(self._dense_hessian(client, w))[-1]
                assert losses.client_hessian_spectral_norm(ds, m, w) == pytest.approx(
                    expected, rel=1e-12)

    def test_spectral_norm_never_exceeds_quarter(self, rng):
        for _ in range(10):
            ds = random_dataset(rng, M=2, n=3, d=4)
            w = rng.normal(size=4) * rng.uniform(0, 2)
            assert losses.hessian_spectral_norm(ds, w) <= 0.25 + 1e-9

    def test_spectral_norm_two_sample_closed_form(self, rng):
        raw = [(RawSample(rng.normal(size=2), 1), 0), (RawSample(rng.normal(size=2), 1), 0)]
        ds = prepare(raw)
        w = rng.normal(size=2)
        H = self._dense_hessian(ds, w)
        # closed-form top eigenvalue of a symmetric 2x2 matrix
        tr, det = H[0, 0] + H[1, 1], H[0, 0] * H[1, 1] - H[0, 1] ** 2
        lam = tr / 2 + math.sqrt(max(tr * tr / 4 - det, 0.0))
        assert losses.hessian_spectral_norm(ds, w) == pytest.approx(lam, abs=1e-9)

    def test_spectral_norm_bounded_by_objective(self, rng):
        for _ in range(25):
            ds = random_dataset(rng, M=2, n=3, d=4)
            w = rng.normal(size=4) * rng.uniform(0, 4)
            value = losses.objective(ds, w).value
            assert losses.hessian_spectral_norm(ds, w) <= value + 1e-8
            for m in range(ds.M):
                hm = losses.client_hessian_spectral_norm(ds, m, w)
                assert hm <= losses.client_value(ds, m, w) + 1e-8
