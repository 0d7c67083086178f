/* Seeded kernel of josephus.simulate's sampler and josephus.analysis's CLT
 * trial draws.  Only simulate's typed entries (_uniforms, _walk,
 * _sample_counts, _inverse_cdf, _CltSums) call it; they size every buffer
 * it fills and check what it reads unchecked.
 *
 * Streams: sample i of master seed S reads the uniforms of numpy's
 * Philox4x64-10 keyed (splitmix64(S, i), 0) with a zero counter, bit for
 * bit as np.random.Generator(np.random.Philox(key=splitmix64(S, i)))
 * .random(k) returns them (tests/stream_reference.py).  The counter is
 * incremented before each 4-word block, and a word x becomes the uniform
 * (x >> 11) * 2^-53.  Philox is Salmon et al., "Parallel Random Numbers: As
 * Easy as 1, 2, 3" (SC'11), with numpy's round layout and constants.
 *
 * Walk: the survivor of one sample, by backward relabeling from the knife
 * holder of the last two-person round (see simulate).  It reads each step's
 * coins straight from the sample's uniforms: a coin is u < p, as np.less
 * thresholds it.  r1 and r2 read one uniform per step; r3 reads a
 * (victim, knife) pair per step.  There are no coin buffers.
 *
 * CLT draws: one N of the trial ensemble takes the DP row, builds its CDF
 * as np.cumsum does, reads stream (S, N) by josephus_uniforms, one uniform
 * per trial, and draws by josephus_inverse_cdf, a guide-table lookup giving
 * exactly the index np.searchsorted(cdf, u, side="right") returns (see
 * simulate._inverse_cdf), clipped to N-1.  Each trial's two sums are
 * updated as numpy's `+=` of `d/N - mean` and `d/N - 0.5` round them.
 * simulate._CltSums allocates the sums and the scratch (CDF, guide,
 * uniforms, draws) once per experiment, sized for the longest row, and
 * checks each row's dtype, shape and length before the call for that N.
 *
 * Build with -ffp-contract=off and without -ffast-math: each float
 * operation must round once, as numpy's does.
 */

#include <stdint.h>

enum { R1 = 1, R2 = 2, R3 = 3 };

#define GOLDEN_GAMMA 0x9E3779B97F4A7C15ULL
#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL

static uint64_t splitmix64(uint64_t seed, uint64_t index)
{
    uint64_t x = seed + (index + 1) * GOLDEN_GAMMA;
    x = (x ^ (x >> 30)) * 0xBF58476D1E3FD879ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* Philox4x64-10 of counter (ctr, 0, 0, 0) under key (key, 0). */
static void philox4x64_10(uint64_t ctr, uint64_t key, uint64_t out[4])
{
    uint64_t x0 = ctr, x1 = 0, x2 = 0, x3 = 0, k0 = key, k1 = 0;
    for (int round = 0; round < 10; round++) {
        if (round > 0) {
            k0 += PHILOX_W0;
            k1 += PHILOX_W1;
        }
        unsigned __int128 p0 = (unsigned __int128)PHILOX_M0 * x0;
        unsigned __int128 p1 = (unsigned __int128)PHILOX_M1 * x2;
        x0 = (uint64_t)(p1 >> 64) ^ x1 ^ k0;
        x1 = (uint64_t)p1;
        x2 = (uint64_t)(p0 >> 64) ^ x3 ^ k1;
        x3 = (uint64_t)p0;
    }
    out[0] = x0;
    out[1] = x1;
    out[2] = x2;
    out[3] = x3;
}

/* The first k uniforms of stream (seed, index) into u[0..k-1]. */
void josephus_uniforms(uint64_t seed, uint64_t index, int64_t k, double *u)
{
    uint64_t key = splitmix64(seed, index), block[4];
    for (int64_t i = 0; i < k; i += 4) {
        philox4x64_10((uint64_t)(i / 4) + 1, key, block);
        for (int64_t j = 0; j < 4 && i + j < k; j++)
            u[i + j] = (double)(block[j] >> 11) * 0x1.0p-53;
    }
}

/* Survivor of the sample whose uniforms are u: n-1 of them for r1 and r2,
 * 2(n-1) for r3.  Step t's coin is u[t] < p, or for r3 the victim coin
 * u[2t] < p and the knife coin u[2t+1] < q.  Round M = 3..N maps the
 * survivor's label s in the (M-1)-person frame back to the M-person frame,
 * reading step N-M. */
int64_t josephus_walk(int kind, int64_t n, double p, double q, const double *u)
{
    int64_t s = 0;
    for (int64_t m = 3; m <= n; m++) {
        int64_t t = n - m;
        int64_t ahead = s + 2 == m ? 0 : s + 2;  /* victim right (pass right for r3) */
        if (kind == R1)
            s = u[t] < p ? ahead : m - 2 - s;  /* a flip mirrors the circle */
        else if (kind == R2)
            s = u[t] < p ? ahead : s == 0 ? m - 2 : s - 1;
        else if (u[2 * t] < p)  /* r3, victim right; pass left: 0 -> M-1, 1 -> 0 */
            s = u[2 * t + 1] < q ? ahead : s == 0 ? m - 1 : s == 1 ? 0 : s;
        else  /* r3, victim left: pass right s -> s+1, pass left s -> s-1, mod M-1 */
            s = u[2 * t + 1] < q ? (s + 1 == m - 1 ? 0 : s + 1) : s == 0 ? m - 2 : s - 1;
    }
    return s;
}

static int certain(double x)
{
    return x == 0 || x == 1;
}

/* Add the survivor of each of samples first .. first+count-1 to counts[].
 * u is a scratch buffer of n-1 uniforms (2(n-1) for r3); q is 0 for r1 and
 * r2.  When every coin is certain, every uniform in [0, 1) gives the same
 * coins: no stream is drawn, and one walk over zeros takes all `count`. */
void josephus_sample(int kind, int64_t n, double p, double q, uint64_t seed,
                     uint64_t first, int64_t count, double *u, int64_t *counts)
{
    int64_t k = kind == R3 ? 2 * (n - 1) : n - 1;
    if (certain(p) && certain(q)) {
        for (int64_t i = 0; i < k; i++)
            u[i] = 0;
        counts[josephus_walk(kind, n, p, q, u)] += count;
        return;
    }
    for (int64_t i = 0; i < count; i++) {
        josephus_uniforms(seed, first + (uint64_t)i, k, u);
        counts[josephus_walk(kind, n, p, q, u)]++;
    }
}

/* out[j] = np.searchsorted(cdf[0..n-1], u[j], side="right") for u[j] in
 * [0, 1), j < m (see simulate._inverse_cdf).  guide[b] becomes the number of
 * cdf entries <= b/K, K the least power of two >= n, so guide holds K
 * entries; each lookup steps forward from u's bucket. */
void josephus_inverse_cdf(int64_t n, const double *cdf, int64_t m, const double *u,
                          int64_t *guide, int64_t *out)
{
    int64_t k = 1;
    while (k < n)
        k *= 2;
    for (int64_t b = 0, d = 0; b < k; b++) {
        while (d < n && cdf[d] <= (double)b / (double)k)
            d++;
        guide[b] = d;
    }
    for (int64_t j = 0; j < m; j++) {
        int64_t d = guide[(int64_t)(u[j] * (double)k)];
        while (d < n && cdf[d] <= u[j])
            d++;
        out[j] = d;
    }
}

/* One N of the CLT ensemble.  cdf[0..n-1] becomes the prefix sum of
 * row[0..n-1], summed in order as np.cumsum sums it; u[] the first `trials`
 * uniforms of stream (seed, n) and draws[] their lookups in cdf.  Trial i
 * clips draws[i] to n-1 as d, then adds d/n - mean to centered[i] and
 * d/n - 0.5 to mid[i].  guide holds at least K entries. */
void josephus_clt_draws(uint64_t seed, int64_t n, const double *row, double mean,
                        int64_t trials, double *cdf, int64_t *guide, double *u,
                        int64_t *draws, double *centered, double *mid)
{
    cdf[0] = row[0];
    for (int64_t d = 1; d < n; d++)
        cdf[d] = cdf[d - 1] + row[d];
    josephus_uniforms(seed, (uint64_t)n, trials, u);
    josephus_inverse_cdf(n, cdf, trials, u, guide, draws);
    for (int64_t i = 0; i < trials; i++) {
        double x = (double)(draws[i] < n ? draws[i] : n - 1) / (double)n;
        centered[i] += x - mean;
        mid[i] += x - 0.5;
    }
}
