/* C ports of the margin-space kernel bodies in _kernels.py.
 *
 * Each function performs the same IEEE double operations in the same order
 * as its Python body, so the two agree bitwise. Build with
 * -ffp-contract=off (no fused multiply-add) and never with -ffast-math.
 * exp() returns inf where Python's math.exp overflows, so a local step from
 * that far out is e / inf = 0, the rule the Python bodies apply.
 *
 * Arrays are C-contiguous: G is M x M, a_hist and C_hist are slots x M.
 * A run stops after the first round that leaves a non-finite a or C; that
 * round is the last history slot. The return value is the number of slots
 * written.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

static void record(int64_t M, const double *a, const double *C, int64_t r,
                   double *a_hist, double *C_hist, int64_t *r_hist, int64_t slot)
{
    memcpy(a_hist + slot * M, a, (size_t)M * sizeof(double));
    memcpy(C_hist + slot * M, C, (size_t)M * sizeof(double));
    r_hist[slot] = r;
}

/* a += G delta / M and C += delta; returns 0 if any a or C is non-finite */
static int average(int64_t M, const double *G, double *a, double *C, const double *delta)
{
    int finite = 1;
    for (int64_t m = 0; m < M; m++) {
        const double *Gm = G + m * M;
        double upd = 0.0;
        for (int64_t mm = 0; mm < M; mm++)
            upd += Gm[mm] * delta[mm];
        a[m] = a[m] + upd / (double)M;
        C[m] += delta[m];
        finite &= isfinite(a[m]) && isfinite(C[m]);
    }
    return finite;
}

int64_t localgd_local_gd_margin(int64_t M, const double *gammas, const double *G, double *a,
                                double eta, int64_t K, int64_t rounds, int64_t stride,
                                double *C, double *C_sum, double *S_local, double *delta,
                                double *a_hist, double *C_hist, int64_t *r_hist)
{
    record(M, a, C, 0, a_hist, C_hist, r_hist, 0);
    int64_t slot = 1;
    for (int64_t r = 0; r < rounds; r++) {
        for (int64_t m = 0; m < M; m++) {
            C_sum[m] += C[m];
            double am = a[m];
            double g = gammas[m];
            double e = eta * g;
            double al = am;
            double acc = 0.0;
            for (int64_t k = 0; k < K; k++) {
                acc += al - am;
                al = al + e / (1.0 + exp(g * al));
            }
            S_local[m] += acc;
            delta[m] = al - am;
        }
        int finite = average(M, G, a, C, delta);
        if (!finite || (r + 1) % stride == 0 || r + 1 == rounds)
            record(M, a, C, r + 1, a_hist, C_hist, r_hist, slot++);
        if (!finite)
            break;
    }
    return slot;
}

static double rk4_flow(double a, double g, double eta, double t_total, int64_t substeps)
{
    double h = t_total / (double)substeps;
    double half_h = 0.5 * h;
    double sixth_h = h / 6.0;
    double e = eta * g;
    for (int64_t s = 0; s < substeps; s++) {
        double k1 = e / (1.0 + exp(g * a));
        double a2 = a + half_h * k1;
        double k2 = e / (1.0 + exp(g * a2));
        double a3 = a + half_h * k2;
        double k3 = e / (1.0 + exp(g * a3));
        double a4 = a + h * k3;
        double k4 = e / (1.0 + exp(g * a4));
        a = a + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
    }
    return a;
}

/* the substeps-vs-half-resolution error estimate goes to err_max[0] (0 when substeps is 1) */
int64_t localgd_gf_numeric_margin(int64_t M, const double *gammas, const double *G, double *a,
                                  double eta, int64_t K, int64_t rounds, int64_t substeps,
                                  int64_t stride, double *C, double *delta, double *a_hist,
                                  double *C_hist, int64_t *r_hist, double *err_max)
{
    double T = (double)K;
    double err = 0.0;
    record(M, a, C, 0, a_hist, C_hist, r_hist, 0);
    int64_t slot = 1;
    for (int64_t r = 0; r < rounds; r++) {
        for (int64_t m = 0; m < M; m++) {
            double am = a[m];
            double g = gammas[m];
            double end = rk4_flow(am, g, eta, T, substeps);
            if (substeps >= 2) {
                double half = rk4_flow(am, g, eta, T, substeps / 2);
                double diff = fabs(end - half);
                if (diff > err)
                    err = diff;
            }
            delta[m] = end - am;
        }
        int finite = average(M, G, a, C, delta);
        if (!finite || (r + 1) % stride == 0 || r + 1 == rounds)
            record(M, a, C, r + 1, a_hist, C_hist, r_hist, slot++);
        if (!finite)
            break;
    }
    err_max[0] = err;
    return slot;
}
