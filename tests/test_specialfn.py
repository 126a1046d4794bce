import math
import pathlib
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localgd import _kernels, cli, specialfn
from localgd.data import SyntheticSpec, gen_synthetic
from localgd.errors import DegenerateGeometryError, DomainError
from localgd.optim import RunConfig, run_local_gf

DATA_DIR = pathlib.Path(__file__).parent / "data"


# the Python leg first, so it runs even where the C leg skips
BACKENDS = ("python", "c")


def _backends():
    """The log_phi backends this machine has, for tests that check each in one body."""
    return BACKENDS if _kernels._library() is not None else ("python",)


def bisect_w_plus_logw(target, tol=1e-15):
    """Independent bisection oracle for w + ln(w) = target, run on t = ln(w)."""
    f = lambda t: math.exp(min(t, 709.0)) + t - target
    lo, hi = -745.0, 709.0
    assert f(lo) < 0 < f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-18:
            break
    t = 0.5 * (lo + hi)
    w = math.exp(t)
    # one polishing bisection pass in w-space tightens the last bits
    wlo, whi = w * (1 - 1e-12), w * (1 + 1e-12)
    g = lambda w: w + math.log(w) - target
    if g(wlo) > 0:
        return wlo
    if g(whi) < 0:
        return whi
    for _ in range(80):
        mid = 0.5 * (wlo + whi)
        if g(mid) < 0:
            wlo = mid
        else:
            whi = mid
    return 0.5 * (wlo + whi)


def log_phi_oracle(b, x):
    """log Phi via the bisection oracle on the underlying transcendental."""
    u = b + math.exp(x) + x
    return u - bisect_w_plus_logw(u) - x


class TestLogPhi:
    def test_zero_b_is_identity(self, rng):
        for x in rng.uniform(-50, 50, size=20):
            assert specialfn.log_phi(0.0, float(x)) == 0.0

    def test_known_value_via_bisection(self):
        # b=1, x=0: u = 2, result = 2 - w where w + ln w = 2
        w = bisect_w_plus_logw(2.0)
        assert 2.0 - w == pytest.approx(0.4428544010023886, abs=1e-14)
        assert specialfn.log_phi(1.0, 0.0) == pytest.approx(2.0 - w, abs=1e-13)

    def test_matches_lambert_identity(self, rng):
        # the u - w - x formulation carries absolute error ~ ulp(u), which is
        # exactly the cancellation log_phi's residual-form solve avoids; the
        # comparison tolerance must budget for the direct path's error
        for _ in range(200):
            b = float(rng.uniform(0.01, 40))
            x = float(rng.uniform(-15, 15))
            u = b + math.exp(x) + x
            direct = u - bisect_w_plus_logw(u) - x
            assert specialfn.log_phi(b, x) == pytest.approx(
                direct, abs=1e-11 * max(1.0, u)
            )

    def test_matches_oracle_at_large_x(self, rng):
        # the naive u - w - x subtraction loses everything here
        for x in (30.0, 100.0, 300.0):
            b = 2.5
            got = specialfn.log_phi(b, x)
            assert got > 0
            # closed-form asymptote: log Phi ~ log(1 + b*exp(-x)) for large x
            assert got == pytest.approx(math.log1p(b * math.exp(-x)), rel=1e-6)

    def test_strictly_decreasing_in_x(self, rng):
        assert specialfn.log_phi(1.0, 1.0) < specialfn.log_phi(1.0, 0.0)
        for _ in range(200):
            b = float(rng.uniform(0.01, 20))
            x1, x2 = sorted(rng.uniform(-10, 10, size=2))
            if x1 == x2:
                continue
            assert specialfn.log_phi(b, x1) > specialfn.log_phi(b, x2)

    def test_positive_for_positive_b(self, rng):
        for _ in range(200):
            b = float(rng.uniform(1e-6, 30))
            x = float(rng.uniform(-20, 20))
            assert specialfn.log_phi(b, x) > 0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            specialfn.log_phi(1.0, 701.0)
        with pytest.raises(DomainError):
            specialfn.log_phi(1.0, -701.0)
        with pytest.raises(ValueError):
            specialfn.log_phi(-0.5, 0.0)

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
    def test_non_finite_b_rejected(self, b):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            specialfn.log_phi(b, 0.0)

    def test_value_below_the_smallest_subnormal_rounds_to_zero(self):
        # b > 0, but the true value lies below 5e-324
        assert specialfn.log_phi(5e-324, 0.0) == 0.0
        assert specialfn.log_phi(1e-300, 700.0) == 0.0
        assert specialfn.surrogate_loss(1.0, 5e-324, 0.0) == 0.0

    def test_large_b_small_exponent_regression(self):
        # this corner needs ~80 descent steps from the linearization seed, so
        # it exercises the exponential-branch seed; value pinned from a
        # 120-digit evaluation of the defining identity
        got = specialfn.log_phi(90.72577987663551, -5.6738932971671545)
        assert got == pytest.approx(10.064198272527994, rel=1e-14)

    def test_against_arbitrary_precision(self, rng):
        for _ in range(40):
            b = float(rng.uniform(1e-6, 3000))
            x = float(rng.uniform(-650, 650))
            dps = 100 + int(0.87 * max(x, 0.0)) + 20
            with mpmath.workdps(dps):
                u = mpmath.mpf(b) + mpmath.exp(mpmath.mpf(x)) + mpmath.mpf(x)
                ref = u - mpmath.lambertw(mpmath.exp(u)) - mpmath.mpf(x)
                got = specialfn.log_phi(b, x)
                assert float(abs(mpmath.mpf(got) - ref) / ref) <= 1e-13

    def test_descent_inequality(self, rng):
        # Phi(b, x+a) <= Phi(b, x) * (1 + (e^-a - 1)(Phi-1)/(Phi + e^-x))
        for _ in range(300):
            b = float(rng.uniform(0.05, 10))
            x = float(rng.uniform(-5, 5))
            a = float(rng.uniform(-3, 3))
            phi = math.exp(specialfn.log_phi(b, x))
            lhs = math.exp(specialfn.log_phi(b, x + a))
            rhs = phi * (1 + (math.exp(-a) - 1) * (phi - 1) / (phi + math.exp(-x)))
            assert lhs <= rhs + 1e-10
            if a < 0:
                assert lhs <= phi * math.exp(-a) + 1e-10

    def test_inverse_bound(self, rng):
        # Phi(b, x) <= 1 + b/(b+2)  implies  x >= log(1+b)
        for _ in range(300):
            b = float(rng.uniform(0.05, 20))
            x = float(rng.uniform(-3, 8))
            phi = math.exp(specialfn.log_phi(b, x))
            if phi <= 1 + b / (b + 2):
                assert x >= math.log1p(b) - 1e-12

    def test_asymptotic_lower_bound(self, rng):
        # x >= log(1+b)  implies  Phi(b, x) >= sqrt(1 + b/exp(x))
        for _ in range(300):
            b = float(rng.uniform(0.05, 20))
            x = math.log1p(b) + float(rng.uniform(0, 6))
            phi = math.exp(specialfn.log_phi(b, x))
            assert phi >= math.sqrt(1 + b * math.exp(-x)) - 1e-12

    def test_psi_concavity(self, rng):
        # psi(x) = Phi(b, log(1/x)) has nonpositive second differences
        for _ in range(300):
            b = float(rng.uniform(0.05, 10))
            x = float(rng.uniform(0.05, 5))
            h = float(rng.uniform(1e-4, 0.5))
            psi = lambda t: math.exp(specialfn.log_phi(b, math.log(1.0 / t)))
            second = psi(x) - 2 * psi(x + h) + psi(x + 2 * h)
            assert second <= 1e-9


class TestLogPhiPastExpRange:
    # roots past exp's overflow threshold (L > 709.78): large b with a very
    # negative x, where y*expm1(L) alone overflows although L is representable
    @pytest.mark.parametrize("b, x", [
        (1e10, -690.0),
        (2e4, -700.0),
        (1e20, -699.0),
        (1e300, -700.0),
        (1.7976931348623157e308, -1.0),
        (1.7976931348623157e308, -700.0),
    ])
    def test_finite_and_matches_arbitrary_precision(self, b, x):
        got = specialfn.log_phi(b, x)
        assert math.isfinite(got) and got > 709.78
        with mpmath.workdps(400):
            u = mpmath.mpf(b) + mpmath.exp(mpmath.mpf(x)) + mpmath.mpf(x)
            ref = u - mpmath.lambertw(mpmath.exp(u)) - mpmath.mpf(x)
            assert float(abs(mpmath.mpf(got) - ref) / ref) <= 1e-15

    def test_finite_over_the_whole_domain(self, rng):
        for _ in range(2000):
            b = float(10.0 ** rng.uniform(-300, 308.25))
            x = float(rng.uniform(-700, 700))
            assert math.isfinite(specialfn.log_phi(b, x)), (b, x)


# The solver as it was before its early exits, verbatim: the early exits must
# leave every bit of every result unchanged.

_NEWTON_STALL = 50


def _ref_log_phi(b: float, x: float) -> float:
    b = float(b)
    x = float(x)
    if b < 0.0:
        raise ValueError(f"b must be nonnegative, got {b}")
    if not math.isfinite(x) or abs(x) > 700.0:
        raise DomainError(f"x={x} outside representable range (|x| <= 700)")
    if b == 0.0:
        return 0.0
    y = math.exp(x)
    ratio = b / y
    exp_branch = math.log1p(ratio) if math.isfinite(ratio) else math.log(b) - x
    L = min(b / (y + 1.0), exp_branch)
    for _ in range(_NEWTON_STALL):
        g = y * math.expm1(L) + L - b
        dg = y * math.exp(L) + 1.0
        Ln = L - g / dg
        if Ln < 0.0:
            Ln = L * 0.5
        if abs(Ln - L) <= 1e-16 * max(abs(Ln), 1e-300):
            return max(Ln, 0.0)
        L = Ln
    return _ref_bisect_log_phi(b, y, L)


def _ref_bisect_log_phi(b, y, hint):
    lo, hi = 0.0, max(hint, 1e-300)
    while y * math.expm1(hi) + hi < b:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if y * math.expm1(mid) + mid < b:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(hi, 1e-300):
            break
    return 0.5 * (lo + hi)


# Newton settles into a 1-ulp two-cycle on these (b, x), so the solver
# finishes by bisection
LOG_PHI_TWO_CYCLES = [
    (13.025155629441674, 4.435478937752066),
    (28.91515641537548, 4.127425118455321),
    (24.348861443607646, 13.979438607454682),
]
# a rarer three-cycle, which still runs all 50 Newton steps
LOG_PHI_THREE_CYCLE = (23.030861914990297, 4.493783515760356)


class _CountingMath:
    """Stands in for the math module and counts calls by function name."""

    def __init__(self):
        self.calls = {}

    def __getattr__(self, name):
        attr = getattr(math, name)
        if not callable(attr):
            return attr

        def counted(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            return attr(*args)

        return counted


class TestSolverEarlyExits:
    # the two bitwise tests check every log_phi backend the machine has
    @given(st.floats(1e-12, 1e4), st.floats(-50, 50))
    @settings(max_examples=2000, deadline=None)
    def test_log_phi_bitwise_equal_to_reference(self, c_switch, b, x):
        want = _ref_log_phi(b, x).hex()
        for backend in _backends():
            with c_switch(backend):
                assert specialfn.log_phi(b, x).hex() == want, backend

    def test_bitwise_equal_on_seeded_inputs(self, rng, c_switch):
        inputs = [*LOG_PHI_TWO_CYCLES, LOG_PHI_THREE_CYCLE,
                  *zip(10.0 ** rng.uniform(-12, 4, 20000), rng.uniform(-50, 50, 20000))]
        want = [_ref_log_phi(b, x).hex() for b, x in inputs]
        for backend in _backends():
            with c_switch(backend):
                got = [specialfn.log_phi(b, x).hex() for b, x in inputs]
            assert got == want, backend

    @pytest.mark.parametrize("solver, bisection, args, counted", [
        *[("log_phi", "_bisect_log_phi", args, "expm1") for args in LOG_PHI_TWO_CYCLES],
    ])
    def test_cycling_input_skips_dead_iterations(self, solver, bisection, args, counted,
                                                 monkeypatch, c_switch):
        # the reference spends 50 Newton steps and 200 halvings on these,
        # each evaluating the counted function once. Pinned to the Python body
        # it counts in: once earlier tests have taken the process past
        # C_MIN_WORK, it solves in C
        counting, bisected = _CountingMath(), []
        real_bisection = getattr(specialfn, bisection)
        monkeypatch.setattr(specialfn, "math", counting)
        monkeypatch.setattr(specialfn, bisection,
                            lambda *a: bisected.append(a) or real_bisection(*a))
        with c_switch("python"):
            got = getattr(specialfn, solver)(*args)
        monkeypatch.undo()
        assert got.hex() == _ref_log_phi(*args).hex()
        assert len(bisected) == 1
        assert counting.calls[counted] < 100


# (b, x) at the edges of log_phi's domain: the smallest subnormal b, |x| at its
# bound, roots past exp's overflow threshold (large b, very negative x), where
# the solve takes its overflow branch, and Newton's two- and three-cycles
LOG_PHI_EDGES = [
    *[(5e-324, x) for x in (0.0, 700.0, -700.0)],
    (1e-300, 700.0), (2.5, 700.0), (2.5, -700.0),
    (1e10, -690.0), (2e4, -700.0), (1e300, -700.0), (1.7976931348623157e308, -1.0),
    (1.7976931348623157e308, -700.0), (1.7976931348623157e308, 700.0),
    *LOG_PHI_TWO_CYCLES, LOG_PHI_THREE_CYCLE,
]


class TestLogPhiBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_edges_match_the_python_body(self, backend, c_switch):
        with c_switch(backend):
            got = [specialfn.log_phi(b, x).hex() for b, x in LOG_PHI_EDGES]
        assert got == [specialfn._log_phi(b, x).hex() for b, x in LOG_PHI_EDGES]
        assert any(float.fromhex(v) > 709.79 for v in got)  # the overflow branch ran

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_invalid_arguments_raise_as_in_python(self, backend, c_switch):
        with c_switch(backend):
            for b in (-0.5, math.nan, math.inf):
                with pytest.raises(ValueError, match="finite and nonnegative"):
                    specialfn.log_phi(b, 0.0)
            for x in (701.0, -701.0, math.nan, math.inf):
                with pytest.raises(DomainError):
                    specialfn.log_phi(1.0, x)
            # arguments that are not floats; ctypes cannot convert the string
            assert specialfn.log_phi("2.5", np.float32(0.5)) == specialfn._log_phi(2.5, 0.5)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exact_flow_rewrites_its_golden_csv(self, backend, tmp_path, c_switch):
        with c_switch(backend):
            assert cli.main([
                "run", "--dataset", str(DATA_DIR / "golden_synthetic.json"), "--optimizer",
                "local-gf", "--eta", "1", "--K", "2", "--R", "12",
                "--out-dir", str(tmp_path), "--name", "golden"]) == 0
        assert (tmp_path / "golden.csv").read_bytes() == \
            (DATA_DIR / "golden_gf_exact.csv").read_bytes()


# log_phi's solves before a fresh process switches to C: each counts 16 scalar steps
_SOLVES = _kernels.C_MIN_WORK // 16


class TestLogPhiSwitch:
    def test_threshold_derives_from_the_kernels_work_threshold(self, c_switch, monkeypatch):
        # each solve counts 16 steps toward C_MIN_WORK, so the 16384th switches
        asked = []
        monkeypatch.setattr(_kernels, "_library", lambda: asked.append(1))
        with c_switch(steps=0):
            for _ in range(1, _SOLVES):
                specialfn.log_phi(2.0, 0.5)
            assert _kernels._python_steps == 16 * (_SOLVES - 1) and not asked
            specialfn.log_phi(2.0, 0.5)
            assert _kernels._python_steps == _kernels.C_MIN_WORK == 16 * 16384 and asked

    def test_calls_below_the_threshold_never_load_the_library(self, c_switch, monkeypatch):
        def unreachable():
            raise AssertionError("log_phi reached the C library below its threshold")

        monkeypatch.setattr(_kernels, "_library", unreachable)
        with c_switch(steps=0):
            # the golden exact flow: 12 rounds of 4 calls, and 2 at its start
            run_local_gf(gen_synthetic(SyntheticSpec(delta=0.1, g=5.0)),
                         RunConfig(R=12, K=2, eta=1.0, gf_method="exact"))
            assert _kernels._python_steps == 16 * 50
            for _ in range(_SOLVES - 50 - 1):
                specialfn.log_phi(2.0, 0.5)
            assert specialfn._c_log_phi is None

    def test_crossing_the_threshold_loads_the_library_once(self, c_switch, monkeypatch):
        if _kernels._library() is None:
            pytest.skip("the C kernels cannot be built here")
        asked, in_python = [], []
        library, body = _kernels._library, specialfn._log_phi
        monkeypatch.setattr(_kernels, "_library", lambda: asked.append(1) or library())
        monkeypatch.setattr(specialfn, "_log_phi",
                            lambda b, x: in_python.append(1) or body(b, x))
        inputs = [(2.0, 0.5 + k * 1e-6) for k in range(_SOLVES + 100)]
        with c_switch(steps=0):
            got = [specialfn.log_phi(b, x).hex() for b, x in inputs]
        assert len(asked) == 1
        assert len(in_python) == _SOLVES - 1  # the solve that reaches C_MIN_WORK runs in C
        assert got == [body(b, x).hex() for b, x in inputs]

    def test_without_a_compiler_calls_stay_python_and_warn_once(self, c_switch, monkeypatch,
                                                               tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_kernels, "_CC", "localgd-no-such-compiler")
        _kernels._library.cache_clear()
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    c_switch(steps=_kernels.C_MIN_WORK - 16):
                warnings.simplefilter("always")
                got = [specialfn.log_phi(b, x).hex() for b, x in LOG_PHI_EDGES]
                assert specialfn._c_log_phi is None
        finally:
            _kernels._library.cache_clear()
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "log_phi" in str(caught[0].message)
        assert got == [specialfn._log_phi(b, x).hex() for b, x in LOG_PHI_EDGES]


class TestSurrogateAndFlow:
    def test_unit_case(self):
        assert specialfn.surrogate_loss(1.0, math.e, 0.0) == pytest.approx(1.0, rel=1e-13)

    def test_vanishes_with_etaK(self):
        values = [specialfn.surrogate_loss(0.7, etaK, 0.3) for etaK in (1e-2, 1e-5, 1e-9)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-8

    def test_small_gamma_via_bisection(self):
        # gamma=0.2, etaK=10, a=0: u = 10*0.04 + 1 = 1.4
        w = bisect_w_plus_logw(1.4)
        expected = (1.4 - w) / 0.2
        assert specialfn.surrogate_loss(0.2, 10.0, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_decreasing_in_projection(self, rng):
        for _ in range(100):
            g = float(rng.uniform(0.1, 1))
            etaK = float(rng.uniform(0.5, 8))
            a1, a2 = sorted(rng.uniform(-5, 5, size=2))
            if a1 == a2:
                continue
            assert specialfn.surrogate_loss(g, etaK, a1) > specialfn.surrogate_loss(g, etaK, a2)

    # one client's exact flow for time t moves its projection from a0 to
    # a0 + surrogate_loss(gamma, eta*t, a0)

    def test_flow_unit_case(self):
        # gamma=1, a0=1, eta*t = e^2 - e + 1: exp(a) + a = e^2 + 2 at a = 2
        eta_t = math.e**2 - math.e + 1.0
        assert 1.0 + specialfn.surrogate_loss(1.0, eta_t, 1.0) == pytest.approx(2.0, rel=1e-13)

    def test_flow_via_bisection(self):
        # gamma=0.5, a0=-1, eta*gamma^2*t = 2
        gamma, a0 = 0.5, -1.0
        target = 2.0 + math.exp(gamma * a0) + gamma * a0
        z = bisect_w_plus_logw(target)  # z = exp(gamma * a)
        expected = math.log(z) / gamma
        eta_t = 2.0 / gamma**2
        got = a0 + specialfn.surrogate_loss(gamma, eta_t, a0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_flow_moves_forward(self, rng):
        for _ in range(100):
            g = float(rng.uniform(0.1, 1))
            a0 = float(rng.uniform(-3, 3))
            t = float(rng.uniform(0.01, 10))
            assert a0 + specialfn.surrogate_loss(g, t, a0) > a0

    @pytest.mark.parametrize("gamma_m, etaK", [
        (math.nan, 1.0), (1.0, math.nan), (1.0, math.inf), (math.inf, 1.0),
    ])
    def test_non_finite_arguments_rejected(self, gamma_m, etaK):
        with pytest.raises(ValueError):
            specialfn.surrogate_loss(gamma_m, etaK, 0.0)


def _state(gammas, c, etaK, a=None):
    g1 = np.array([1.0, 0.0])
    g2 = np.array([c, math.sqrt(max(1 - c * c, 0.0))])
    return specialfn.make_gf_state(np.asarray(gammas, float), np.vstack([g1, g2]), etaK, a=a)


class TestGfRound:
    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan])
    def test_state_refuses_a_gamma_that_is_not_positive(self, gamma):
        with pytest.raises(ValueError, match="positive"):
            _state([0.5, gamma], 0.3, 1.0)

    def test_single_client_reduces_to_flow(self):
        state = specialfn.make_gf_state(
            np.array([1.0]), np.array([[1.0, 0.0]]), math.e
        )
        out = specialfn.gf_round(state, math.e)
        assert out.a[0] == pytest.approx(1.0, rel=1e-12)

    def test_symmetric_pair_identity(self, rng):
        for c in (-0.9, -0.3, 0.0, 0.5, 0.98):
            gamma, a0, etaK = 0.6, 0.2, 3.0
            state = _state([gamma, gamma], c, etaK, a=[a0, a0])
            out = specialfn.gf_round(state, etaK)
            rho = specialfn.surrogate_loss(gamma, etaK, a0)
            expected = a0 + 0.5 * (1 + c) * rho
            np.testing.assert_allclose(out.a, [expected, expected], rtol=1e-12)

    def test_round_invariants(self, rng):
        state = _state([0.8, 0.3], -0.5, 2.0)
        for _ in range(50):
            state = specialfn.gf_round(state, 2.0)
            assert np.all(state.rho > 0)
            assert state.lyapunov == state.rho.max()

    def test_matches_fine_numeric_integration(self):
        # closed-form round map against the fixed-step integrator
        ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
        cfg_exact = RunConfig(R=50, K=1, eta=4.0, gf_method="exact")
        cfg_num = RunConfig(R=50, K=1, eta=4.0, gf_method="numeric", gf_substeps=10000)
        res_exact = run_local_gf(ds, cfg_exact)
        res_num = run_local_gf(ds, cfg_num)
        for te, tn in zip(res_exact.traces, res_num.traces):
            np.testing.assert_allclose(te.a, tn.a, atol=1e-6)

    def test_lyapunov_monotone_short(self, rng):
        for _ in range(20):
            gammas = rng.uniform(0.1, 1.0, size=2)
            c = float(rng.uniform(-0.99, 0.99))
            etaK = float(rng.uniform(0.5, 8))
            state = _state(gammas, c, etaK)
            prev = state.lyapunov
            for _r in range(100):
                state = specialfn.gf_round(state, etaK)
                assert state.lyapunov <= prev + 1e-12
                prev = state.lyapunov

    def test_quantitative_decrease(self, rng):
        # worst client's surrogate shrinks quadratically; a climbing surrogate
        # stays below (1-c)/2 of the previous level
        for _ in range(20):
            gammas = rng.uniform(0.1, 1.0, size=2)
            c = float(rng.uniform(-0.99, 0.99))
            etaK = float(rng.uniform(0.5, 8))
            state = _state(gammas, c, etaK)
            L0 = max(
                math.log1p(etaK * g * g) / g for g in gammas
            )
            for _r in range(60):
                nxt = specialfn.gf_round(state, etaK)
                L = state.lyapunov
                m = int(np.argmax(state.rho))
                shrink = (1 + c) * gammas[m] / (
                    4 * (L0 + 1) ** 2 * (1 + math.exp(-gammas[m] * state.a[m]))
                )
                assert nxt.rho[m] <= L - shrink * L * L + 1e-10
                for j in range(2):
                    if nxt.rho[j] >= state.rho[j]:
                        assert nxt.rho[j] <= (1 - c) / 2 * L + 1e-10
                state = nxt


class TestTheoryConstants:
    def test_equal_gammas_unit(self):
        state = _state([1.0, 1.0], 0.3, math.e - 1)
        tc = specialfn.theory_constants(state, math.e - 1)
        assert tc.L0 == pytest.approx(1.0, rel=1e-12)
        assert tc.H0 == pytest.approx(1.0, rel=1e-12)

    def test_ordering(self, rng):
        for _ in range(50):
            gammas = rng.uniform(0.1, 1.0, size=2)
            c = float(rng.uniform(-0.99, 0.99))
            etaK = float(rng.uniform(0.5, 8))
            tc = specialfn.theory_constants(_state(gammas, c, etaK), etaK)
            assert tc.L0 >= tc.H0 > 0
            assert tc.tau >= 0

    def test_synthetic_value_against_independent_evaluation(self):
        ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
        gammas = np.array([np.linalg.norm(Z[0]) for Z in ds.clients])
        U = np.array([Z[0] / np.linalg.norm(Z[0]) for Z in ds.clients])
        etaK = 4.0
        state = specialfn.make_gf_state(gammas, U, etaK)
        tc = specialfn.theory_constants(state, etaK)
        # independent re-evaluation of the displayed formula
        c = float(U[0] @ U[1])
        g1, g2 = gammas
        L0 = max(math.log(1 + etaK * g1**2) / g1, math.log(1 + etaK * g2**2) / g2)
        H0 = min(math.log(1 + etaK * g1**2) / g1, math.log(1 + etaK * g2**2) / g2)
        gmin, gmax = min(g1, g2), max(g1, g2)
        try:
            power = math.pow(L0 / H0, 3 * (L0 + 1) ** 2 * (1 - c) * gmax / ((1 + c) * gmin))
            tau = (
                16 * (L0 + 1) ** 2 / ((1 + c) * gmin)
                * ((1 / H0 - 1 / L0) * power + 4 * gmax + 2 / H0)
            )
        except OverflowError:
            tau = math.inf
        assert tc.L0 == pytest.approx(L0, rel=1e-12)
        assert tc.H0 == pytest.approx(H0, rel=1e-12)
        # this dataset is steep enough that the closed-form transition time
        # overflows float64; both evaluations must agree on that
        assert tc.tau == tau == math.inf

    def test_antipodal_rejected(self):
        state = _state([0.5, 0.5], -1.0, 1.0)
        with pytest.raises(DegenerateGeometryError):
            specialfn.theory_constants(state, 1.0)

    def test_underflowing_surrogate_scale_rejected(self):
        # etaK*gamma^2 = 1e-325 rounds to 0, so H0 = 0 and 1/H0 is undefined
        state = _state([1.0, 1e-160], 0.5, 1e-5)
        with pytest.raises(DegenerateGeometryError, match="underflows"):
            specialfn.theory_constants(state, 1e-5)

    def test_finite_tau_against_independent_evaluation(self):
        gammas, c, etaK = [1.0, 0.8], 0.5, 2.0
        tc = specialfn.theory_constants(_state(gammas, c, etaK), etaK)
        g1, g2 = gammas
        L0 = max(math.log1p(etaK * g1**2) / g1, math.log1p(etaK * g2**2) / g2)
        H0 = min(math.log1p(etaK * g1**2) / g1, math.log1p(etaK * g2**2) / g2)
        gmin, gmax = min(gammas), max(gammas)
        power = (L0 / H0) ** (3 * (L0 + 1) ** 2 * (1 - c) * gmax / ((1 + c) * gmin))
        tau = (
            16 * (L0 + 1) ** 2 / ((1 + c) * gmin)
            * ((1 / H0 - 1 / L0) * power + 4 * gmax + 2 / H0)
        )
        assert math.isfinite(tau)
        assert tc.tau == pytest.approx(tau, rel=1e-9)

    def test_envelope_shape(self):
        state = _state([1.0, 0.8], 0.5, 2.0)
        tc = specialfn.theory_constants(state, 2.0)
        assert math.isfinite(tc.tau)
        v1, v2 = tc.envelope(tc.tau + 100), tc.envelope(tc.tau + 200)
        assert v1 > v2 > 0
        assert v2 == pytest.approx(v1 / 2, rel=1e-12)
        with pytest.raises(ValueError):
            tc.envelope(tc.tau)

    def test_envelope_variant(self):
        state = _state([1.0, 0.8], 0.5, 2.0)
        tc = specialfn.theory_constants(state, 2.0)
        assert math.isfinite(tc.tau1)
        v = tc.envelope(tc.tau1 + 50, variant="warm")
        assert v > 0
        with pytest.raises(ValueError):
            tc.envelope(tc.tau0, variant="warm")
