/* C ports of the margin-space kernel bodies in _kernels.py, and of
 * specialfn.log_phi's Newton and bisection solve.
 *
 * The margin kernels agree with their Python bodies bitwise, client by
 * client: each client's chain of local steps (or RK4 substeps) performs the
 * same IEEE double operations in the same order as in its Python body, and
 * the averaging and the divergence rule sum over clients in ascending order,
 * as there. Only the chains of
 * different clients, which share no data, interleave: the clients step side
 * by side in blocks of BLOCK, the step loop outside and the clients inside,
 * so the CPU overlaps one client's exp with another's instead of waiting on
 * each chain in turn. Build with -ffp-contract=off (no fused multiply-add)
 * and never with -ffast-math. exp() returns inf where Python's math.exp
 * overflows, so a local step from that far out is e / inf = 0, the rule the
 * Python bodies apply.
 *
 * Both kernels take the argument list _kernels._run lays out and write only
 * to its buffers (the flow's error estimate to the per-client err). Arrays
 * are C-contiguous: G is M x M, a_hist and C_hist are slots x M. A run stops
 * at the first round, 0 included, that breaks the divergence rule (see
 * _kernels.py); that round goes to r_hist[slot], the first slot left
 * unwritten. The return value is the number of slots written.
 *
 * localgd_log_phi is bitwise specialfn._log_phi by construction: it calls
 * the libm functions behind CPython's math.exp, expm1, log1p and log, in the
 * same order, on the same doubles. Where math.exp or math.expm1 would raise
 * OverflowError (an infinite result from a finite argument), it takes the
 * branch the Python body's except clause takes, and Python's max(a, b) and
 * min(a, b) keep their argument order (b only if b > a, resp. b < a), so
 * -0.0 and NaN come out as in Python. Where the Python body raises, it
 * returns NaN instead; specialfn runs the Python body on any NaN result, so
 * that the Python body raises there (or returns its own NaN).
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define BLOCK 4

/* the number of clients in the block from client m0 on */
static int block_size(int64_t M, int64_t m0)
{
    return M - m0 < BLOCK ? (int)(M - m0) : BLOCK;
}

static void record(int64_t M, const double *a, const double *C, int64_t r,
                   double *a_hist, double *C_hist, int64_t *r_hist, int64_t slot)
{
    memcpy(a_hist + slot * M, a, (size_t)M * sizeof(double));
    memcpy(C_hist + slot * M, C, (size_t)M * sizeof(double));
    r_hist[slot] = r;
}

/* a += G delta / M and C += delta */
static void average(int64_t M, const double *G, double *a, double *C, const double *delta)
{
    for (int64_t m = 0; m < M; m++) {
        const double *Gm = G + m * M;
        double upd = 0.0;
        for (int64_t mm = 0; mm < M; mm++)
            upd += Gm[mm] * delta[mm];
        a[m] = a[m] + upd / (double)M;
        C[m] += delta[m];
    }
}

/* the divergence rule: w = w0 + U^T C / M has a finite ||w||^2 = ||w0||^2 + sum_m
 * (C_m / M)(a0_m + a_m) and, for the flow (gammas), every |gamma_m a_m| <= 700 */
static int rule_holds(int64_t M, const double *gammas, const double *a0, double w0_sq,
                      const double *a, const double *C)
{
    double s = 0.0;
    for (int64_t m = 0; m < M; m++) {
        s += C[m] / (double)M * (a0[m] + a[m]);
        if (gammas && !(fabs(gammas[m] * a[m]) <= 700.0))
            return 0;
    }
    return isfinite(w0_sq + s);
}

int64_t localgd_local_gd_margin(int64_t M, const double *gammas, const double *G,
                                const double *a0, double w0_sq, double *a, double eta,
                                int64_t K, int64_t rounds, int64_t stride, double *C,
                                double *C_sum, double *S_local, double *delta,
                                double *a_hist, double *C_hist, int64_t *r_hist)
{
    int64_t slot = 0, r;
    for (r = 0; rule_holds(M, NULL, a0, w0_sq, a, C); r++) {
        if (r % stride == 0 || r == rounds)
            record(M, a, C, r, a_hist, C_hist, r_hist, slot++);
        if (r == rounds)
            return slot;
        for (int64_t m0 = 0; m0 < M; m0 += BLOCK) {
            int n = block_size(M, m0);
            /* a struct per client: GCC makes the zeroing of an acc[BLOCK] array a memset call */
            struct { double am, g, e, al, acc; } c[BLOCK];
            for (int j = 0; j < n; j++) {
                C_sum[m0 + j] += C[m0 + j];
                c[j].am = c[j].al = a[m0 + j];
                c[j].g = gammas[m0 + j];
                c[j].e = eta * c[j].g;
                c[j].acc = 0.0;
            }
            for (int64_t k = 0; k < K; k++)
                for (int j = 0; j < n; j++) {
                    c[j].acc += c[j].al - c[j].am;
                    c[j].al = c[j].al + c[j].e / (1.0 + exp(c[j].g * c[j].al));
                }
            for (int j = 0; j < n; j++) {
                S_local[m0 + j] += c[j].acc;
                delta[m0 + j] = c[j].al - c[j].am;
            }
        }
        average(M, G, a, C, delta);
    }
    r_hist[slot] = r;
    return slot;
}

/* advances the n flows a[j] by t_total time units in substeps RK4 steps, stage by stage */
static void rk4_flows(int n, double *a, const double *g, double eta, double t_total,
                      int64_t substeps)
{
    double h = t_total / (double)substeps;
    double half_h = 0.5 * h;
    double sixth_h = h / 6.0;
    double e[BLOCK], k1[BLOCK], k2[BLOCK], k3[BLOCK], k4[BLOCK];
    for (int j = 0; j < n; j++)
        e[j] = eta * g[j];
    for (int64_t s = 0; s < substeps; s++) {
        for (int j = 0; j < n; j++)
            k1[j] = e[j] / (1.0 + exp(g[j] * a[j]));
        for (int j = 0; j < n; j++)
            k2[j] = e[j] / (1.0 + exp(g[j] * (a[j] + half_h * k1[j])));
        for (int j = 0; j < n; j++)
            k3[j] = e[j] / (1.0 + exp(g[j] * (a[j] + half_h * k2[j])));
        for (int j = 0; j < n; j++)
            k4[j] = e[j] / (1.0 + exp(g[j] * (a[j] + h * k3[j])));
        for (int j = 0; j < n; j++)
            a[j] = a[j] + sixth_h * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]);
    }
}

/* err[m] keeps client m's largest error estimate: the endpoint gap to substeps / 2 steps, or
 * 2 steps when substeps is 1 */
int64_t localgd_gf_numeric_margin(int64_t M, const double *gammas, const double *G,
                                  const double *a0, double w0_sq, double *a, double eta,
                                  int64_t K, int64_t substeps, int64_t rounds, int64_t stride,
                                  double *C, double *delta, double *err, double *a_hist,
                                  double *C_hist, int64_t *r_hist)
{
    double T = (double)K;
    int64_t coarse = substeps / 2 ? substeps / 2 : 2;
    int64_t slot = 0, r;
    for (r = 0; rule_holds(M, gammas, a0, w0_sq, a, C); r++) {
        if (r % stride == 0 || r == rounds)
            record(M, a, C, r, a_hist, C_hist, r_hist, slot++);
        if (r == rounds)
            return slot;
        for (int64_t m0 = 0; m0 < M; m0 += BLOCK) {
            int n = block_size(M, m0);
            double end[BLOCK], coarse_end[BLOCK];
            memcpy(end, a + m0, (size_t)n * sizeof(double));
            memcpy(coarse_end, a + m0, (size_t)n * sizeof(double));
            rk4_flows(n, end, gammas + m0, eta, T, substeps);
            rk4_flows(n, coarse_end, gammas + m0, eta, T, coarse);
            for (int j = 0; j < n; j++) {
                double diff = fabs(end[j] - coarse_end[j]);
                if (diff > err[m0 + j])
                    err[m0 + j] = diff;
                delta[m0 + j] = end[j] - a[m0 + j];
            }
        }
        average(M, G, a, C, delta);
    }
    r_hist[slot] = r;
    return slot;
}

/* whether CPython's math.exp or math.expm1 raises OverflowError at v, whose libm value is r */
static int overflowed(double r, double v)
{
    return isinf(r) && isfinite(v);
}

/* _below_root: whether g(L) = y*expm1(L) + L - b is negative, also past exp's range */
static int below_root(double b, double x, double y, double L)
{
    /* expm1 overflows only where L > 709, and x >= -700, so exp(-(x + L)) cannot */
    double em1 = expm1(L);
    if (!overflowed(em1, L))
        return y * em1 + L < b;
    return (b - L) * exp(-(x + L)) > 1.0;
}

/* _bisect_log_phi */
static double bisect_log_phi(double b, double x, double y, double hint)
{
    double lo = 0.0, hi = 1e-300 > hint ? 1e-300 : hint;
    while (below_root(b, x, y, hi))
        hi *= 2.0;
    for (int i = 0; i < 200; i++) {
        double mid = 0.5 * (lo + hi);
        if (mid == lo || mid == hi)
            return mid;
        if (below_root(b, x, y, mid))
            lo = mid;
        else
            hi = mid;
        double scale = 1e-300 > hi ? 1e-300 : hi;
        if (hi - lo <= 1e-16 * scale)
            break;
    }
    return 0.5 * (lo + hi);
}

#define NEWTON_STALL 50

/* specialfn._log_phi; NaN where it raises */
double localgd_log_phi(double b, double x)
{
    if (!(0.0 <= b && b < INFINITY) || !isfinite(x) || fabs(x) > 700.0)
        return NAN;
    if (b == 0.0)
        return 0.0;
    double y = exp(x);
    double ratio = b / y;
    double exp_branch = isfinite(ratio) ? log1p(ratio) : log(b) - x;
    double linear = b / (y + 1.0);
    double L = exp_branch < linear ? exp_branch : linear;
    double L_prev = NAN;
    for (int i = 0; i < NEWTON_STALL; i++) {
        double em1 = expm1(L), e = 0.0, Ln;
        if (!overflowed(em1, L))
            e = exp(L);
        if (overflowed(em1, L) || overflowed(e, L)) {
            /* L > 709 here and x >= -700, so this exp cannot overflow */
            double q = exp(-(x + L));
            Ln = L - (1.0 + (L - b) * q) / (1.0 + q);
        } else {
            double g = y * em1 + L - b;
            double dg = y * e + 1.0;
            Ln = L - g / dg;
        }
        if (Ln < 0.0)
            Ln = L * 0.5;
        double scale = 1e-300 > fabs(Ln) ? 1e-300 : fabs(Ln);
        if (fabs(Ln - L) <= 1e-16 * scale)
            return 0.0 > Ln ? 0.0 : Ln;
        if (Ln == L_prev)
            /* _stalled_iterate */
            return bisect_log_phi(b, x, y, (NEWTON_STALL - 1 - i) % 2 == 0 ? Ln : L);
        L_prev = L;
        L = Ln;
    }
    return bisect_log_phi(b, x, y, L);
}
