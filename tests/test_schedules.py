import math

import pytest

from localgd.schedules import make_policy, theory_eta1, theory_r0


class TestMakePolicy:
    def test_small(self):
        assert make_policy("small", K=16, H=0.25).eta == 0.25

    def test_large(self):
        assert make_policy("large", K=16, H=0.25).eta == 4.0

    def test_two_stage(self):
        p = make_policy("two_stage", K=64, H=0.25, lam=4)
        assert p.eta1 == 1 / 16
        assert p.eta2 == 4.0
        assert p.r0 == 256

    def test_two_stage_floor(self):
        assert make_policy("two_stage", K=16, H=0.25, lam=1 / 16).r0 == 1
        assert make_policy("two_stage", K=10, H=0.25, lam=0.35).r0 == 3

    def test_exact_identities(self):
        for K in (1, 4, 16, 64, 1024):
            for H in (0.25, 0.5, 1.0):
                assert make_policy("small", K=K, H=H).eta * K * H == 1.0
                assert make_policy("large", K=K, H=H).eta * H == 1.0

    def test_two_stage_requires_lambda(self):
        with pytest.raises(ValueError, match="lam"):
            make_policy("two_stage", K=4)

    def test_explicit(self):
        p = make_policy("explicit", K=4, eta=0.3)
        assert p.eta == 0.3
        with pytest.raises(ValueError):
            make_policy("explicit", K=4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("cosine", K=4)

    def test_two_stage_refuses_a_lambda_that_is_not_finite(self):
        for lam in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="lam must be finite"):
                make_policy("two_stage", K=4, lam=lam)

    def test_refuses_a_curvature_bound_that_is_not_positive(self):
        for H in (0.0, -0.25, math.nan):
            with pytest.raises(ValueError, match="H must be positive"):
                make_policy("small", K=4, H=H)


def r0_terms(eta2, K, M, gamma):
    """Independent evaluation of the four warmup-length terms."""
    et = eta2 * K * M
    g4, g52 = gamma**4, gamma**2.5
    plog = lambda x: max(0.0, math.log(x))
    return (
        2.0,
        126 * et / g4,
        252 * et / g4 * plog(504 * et / g4) ** 2,
        76 * et**0.75 / g52 * plog(38 * et**0.75 / g52),
    )


class TestTheoryR0:
    def test_tiny_ratio_hits_floor(self):
        assert theory_r0(1e-6 / 32, 16, 2, 0.9) == 2

    def test_monotone_in_K(self):
        vals = [theory_r0(1.0, K, 2, 0.5) for K in (1, 2, 4, 8, 16, 64)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_matches_independent_evaluation(self):
        gamma = 0.033094435877160364
        got = theory_r0(1.0, 16, 2, gamma)
        assert got == math.ceil(max(r0_terms(1.0, 16, 2, gamma)))
        for eta2, K, M, g in [(1, 4, 2, 0.995), (4, 64, 5, 0.3), (0.5, 16, 2, 1.0)]:
            assert theory_r0(eta2, K, M, g) == math.ceil(max(r0_terms(eta2, K, M, g)))

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            theory_r0(1.0, 4, 2, 0.0)


class TestTheoryEta1:
    def test_first_branch_dominates_for_large_K(self):
        K = 4096
        assert theory_eta1(1.0, K, 2, 0.9) == 1.0 / (4 * K)

    def test_degenerate_eta2(self):
        assert theory_eta1(0.0, 16, 2, 0.5) == 0.0

    def test_matches_independent_evaluation(self):
        eta2, K, M, gamma = 1.0, 16, 2, 0.1
        expected = min(1 / (4 * K), eta2 ** (1 / 3) * M ** (1 / 3) / (gamma**2 * K ** (2 / 3)))
        assert theory_eta1(eta2, K, M, gamma) == expected
        assert expected == pytest.approx(0.015625)

    def test_never_exceeds_small_policy(self):
        for K in (1, 8, 64):
            for gamma in (0.05, 0.3, 1.0):
                assert theory_eta1(1.0, K, 2, gamma) <= make_policy("small", K=K, H=0.25).eta
