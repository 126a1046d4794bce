/* C ports of the margin-space kernel bodies in _kernels.py.
 *
 * The two agree bitwise, client by client: each client's chain of local
 * steps (or RK4 substeps) performs the same IEEE double operations in the
 * same order as in its Python body, and the averaging and the divergence
 * rule sum over clients in ascending order, as there. Only the chains of
 * different clients, which share no data, interleave: the clients step side
 * by side in blocks of BLOCK, the step loop outside and the clients inside,
 * so the CPU overlaps one client's exp with another's instead of waiting on
 * each chain in turn. Build with -ffp-contract=off (no fused multiply-add)
 * and never with -ffast-math. exp() returns inf where Python's math.exp
 * overflows, so a local step from that far out is e / inf = 0, the rule the
 * Python bodies apply.
 *
 * Arrays are C-contiguous: G is M x M, a_hist and C_hist are slots x M.
 * A run stops at the first round, 0 included, that breaks the divergence
 * rule (see _kernels.py); that round goes to r_hist[slot], the first slot
 * left unwritten. The return value is the number of slots written.
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

/* raises err_max[0] to the substeps-vs-half-resolution error estimate (none when substeps is 1) */
int64_t localgd_gf_numeric_margin(int64_t M, const double *gammas, const double *G,
                                  const double *a0, double w0_sq, double *a, double eta,
                                  int64_t K, int64_t rounds, int64_t substeps, int64_t stride,
                                  double *C, double *delta, double *a_hist, double *C_hist,
                                  int64_t *r_hist, double *err_max)
{
    double T = (double)K;
    int64_t slot = 0, r;
    for (r = 0; rule_holds(M, gammas, a0, w0_sq, a, C); r++) {
        if (r % stride == 0 || r == rounds)
            record(M, a, C, r, a_hist, C_hist, r_hist, slot++);
        if (r == rounds)
            return slot;
        for (int64_t m0 = 0; m0 < M; m0 += BLOCK) {
            int n = block_size(M, m0);
            double end[BLOCK], half[BLOCK];
            memcpy(end, a + m0, (size_t)n * sizeof(double));
            memcpy(half, a + m0, (size_t)n * sizeof(double));
            rk4_flows(n, end, gammas + m0, eta, T, substeps);
            if (substeps >= 2)
                rk4_flows(n, half, gammas + m0, eta, T, substeps / 2);
            for (int j = 0; j < n; j++) {
                if (substeps >= 2) {
                    double diff = fabs(end[j] - half[j]);
                    if (diff > err_max[0])
                        err_max[0] = diff;
                }
                delta[m0 + j] = end[j] - a[m0 + j];
            }
        }
        average(M, G, a, C, delta);
    }
    r_hist[slot] = r;
    return slot;
}
