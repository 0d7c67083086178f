/* Seeded kernel of josephus.simulate's sampler and josephus.analysis's CLT
 * trial draws, and the normal CDF Phi of the CLT's Kolmogorov-Smirnov
 * distances.  Only simulate's typed entries (_uniforms, _walk,
 * _sample_counts, _inverse_cdf, _CltSums, _ndtr) call it; they size every
 * buffer it fills and check what it reads unchecked.
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
 * (victim, knife) pair per step.  There are no coin buffers.  Each coin
 * picks the next label by a mask, not by a jump: every label the coins may
 * choose is computed first, since a jump on a fair coin is mispredicted
 * half the time and cost more than the Philox uniform it reads.
 *
 * CLT draws: the trials are split into contiguous slices, and
 * josephus_clt_batch runs one slice over a batch of DP rows.  Per row it
 * builds the CDF as np.cumsum does, reads the slice's uniforms of stream
 * (S, N) by josephus_uniforms, one uniform per trial, and draws by
 * josephus_inverse_cdf, a guide-table lookup giving exactly the index
 * np.searchsorted(cdf, u, side="right") returns (see
 * simulate._inverse_cdf), clipped to N-1.  Each trial's two sums are
 * updated as numpy's `+=` of `d/N - mean` and `d/N - 0.5` round them, in
 * N order, so the sums do not depend on the split.  simulate._CltSums
 * allocates the sums and each slice's scratch (CDF, guide, uniforms, draws)
 * once per experiment, sized for the longest row, checks each row's dtype,
 * shape and length, and hands the rows over in batches: the calling thread
 * runs slice 0 and one persistent thread each other slice.
 *
 * Phi: josephus_ndtr is the Cephes ndtr that scipy.special.ndtr runs, so
 * analysis._ks_normal gives scipy.stats.kstest's statistic bit for bit
 * without loading scipy.  It needs libm's exp: link with -lm.
 *
 * Build with -ffp-contract=off and without -ffast-math: each float
 * operation must round once, as numpy's does.
 */

#include <math.h>
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

/* Uniforms first .. first+k-1 of stream (seed, index) into u[0..k-1]:
 * uniform i is lane i mod 4 of the block of counter i/4 + 1, so a reader
 * can start anywhere in the stream. */
void josephus_uniforms(uint64_t seed, uint64_t index, uint64_t first, int64_t k, double *u)
{
    uint64_t key = splitmix64(seed, index), block[4];
    for (int64_t j = 0; j < k;) {
        uint64_t i = first + (uint64_t)j;
        philox4x64_10(i / 4 + 1, key, block);
        for (uint64_t lane = i % 4; lane < 4 && j < k; lane++)
            u[j++] = (double)(block[lane] >> 11) * 0x1.0p-53;
    }
}

/* a if c else b, by a mask rather than a jump (see Walk above). */
static inline int64_t pick(int c, int64_t a, int64_t b)
{
    int64_t m = -(int64_t)c;
    return (a & m) | (b & ~m);
}

/* Survivor of the sample whose uniforms are u: n-1 of them for r1 and r2,
 * 2(n-1) for r3.  Step t's coin is u[t] < p, or for r3 the victim coin
 * u[2t] < p and the knife coin u[2t+1] < q.  Round M = 3..N maps the
 * survivor's label s in the (M-1)-person frame back to the M-person frame,
 * reading step N-M.  Each rule has its own loop, which computes every
 * label the round's coins may choose and picks one by pick(): with the
 * kind test inside one loop, gcc -O3 turned the picks back into jumps. */
int64_t josephus_walk(int kind, int64_t n, double p, double q, const double *u)
{
    int64_t s = 0;
    if (kind == R1) {
        for (int64_t m = 3; m <= n; m++) {
            int64_t ahead = s + 2 == m ? 0 : s + 2;  /* victim right */
            s = pick(u[n - m] < p, ahead, m - 2 - s);  /* a flip mirrors the circle */
        }
    } else if (kind == R2) {
        for (int64_t m = 3; m <= n; m++) {
            int64_t ahead = s + 2 == m ? 0 : s + 2, back = s == 0 ? m - 2 : s - 1;
            s = pick(u[n - m] < p, ahead, back);
        }
    } else {
        for (int64_t m = 3; m <= n; m++) {
            const double *c = u + 2 * (n - m);  /* (victim, knife) coins of step N-M */
            int knife = c[1] < q;
            /* victim right: pass right s -> s+2; pass left 0 -> M-1, 1 -> 0 */
            int64_t right = pick(knife, s + 2 == m ? 0 : s + 2, s == 0 ? m - 1 : s == 1 ? 0 : s);
            /* victim left: pass right s -> s+1, pass left s -> s-1, mod M-1 */
            int64_t left = pick(knife, s + 1 == m - 1 ? 0 : s + 1, s == 0 ? m - 2 : s - 1);
            s = pick(c[0] < p, right, left);
        }
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
        josephus_uniforms(seed, first + (uint64_t)i, 0, k, u);
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

/* Trials t0 .. t1-1 of a batch of rows of the CLT ensemble.  Row r holds
 * the ns[r] doubles at rows[r], of mean means[r].  Per row, cdf[0..n-1]
 * becomes its prefix sum, summed in order as np.cumsum sums it; u[] the
 * uniforms t0 .. t1-1 of stream (seed, n) and draws[] their lookups in
 * cdf.  Trial i clips its draw to n-1 as d, then adds d/n - mean to
 * centered[i] and d/n - 0.5 to mid[i].  cdf holds the longest row, guide at
 * least its K entries, u and draws t1 - t0 entries each. */
void josephus_clt_batch(uint64_t seed, int64_t nrows, const int64_t *ns,
                        const double *const *rows, const double *means, int64_t t0,
                        int64_t t1, double *cdf, int64_t *guide, double *u, int64_t *draws,
                        double *centered, double *mid)
{
    for (int64_t r = 0; r < nrows; r++) {
        int64_t n = ns[r];
        const double *row = rows[r];
        cdf[0] = row[0];
        for (int64_t d = 1; d < n; d++)
            cdf[d] = cdf[d - 1] + row[d];
        josephus_uniforms(seed, (uint64_t)n, (uint64_t)t0, t1 - t0, u);
        josephus_inverse_cdf(n, cdf, t1 - t0, u, guide, draws);
        for (int64_t i = t0; i < t1; i++) {
            double x = (double)(draws[i - t0] < n ? draws[i - t0] : n - 1) / (double)n;
            centered[i] += x - means[r];
            mid[i] += x - 0.5;
        }
    }
}

/* Cephes ndtr, erf and erfc (S. L. Moshier, "Methods and Programs for
 * Mathematical Functions", 1989), as scipy.special.ndtr runs them: the same
 * coefficients, the same Horner order, the same branches.  ndtr calls erf
 * only with |x| < sqrt(1/2) and erfc only with x >= sqrt(1/2), so the
 * branches that no such argument reaches are left out. */
static const double NDTR_P[] = {
    2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
    4.86371970985681366614E1,   1.96520832956077098242E2,  5.26445194995477358631E2,
    9.34528527171957607540E2,   1.02755188689515710272E3,  5.57535335369399327526E2};
static const double NDTR_Q[] = { /* leading 1 implied */
    1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
    9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
    1.65666309194161350182E3, 5.57535340817727675546E2};
static const double NDTR_R[] = {
    5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
    6.16021097993053585195E0,  7.40974269950448939160E0, 2.97886665372100240670E0};
static const double NDTR_S[] = { /* leading 1 implied */
    2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
    1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0};
static const double NDTR_T[] = {
    9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
    7.00332514112805075473E3, 5.55923013010394962768E4};
static const double NDTR_U[] = { /* leading 1 implied */
    3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
    2.26290000613890934246E4, 4.92673942608635921086E4};
#define MAXLOG 7.09782712893383996843E2  /* log(2^1024) */
#define SQRT1_2 0.70710678118654752440   /* sqrt(1/2) */

/* c[0] x^n + ... + c[n], and the same with an implied leading coefficient 1. */
static double polevl(double x, const double *c, int n)
{
    double y = c[0];
    for (int i = 1; i <= n; i++)
        y = y * x + c[i];
    return y;
}

static double p1evl(double x, const double *c, int n)
{
    double y = x + c[0];
    for (int i = 1; i < n; i++)
        y = y * x + c[i];
    return y;
}

/* Cephes' erf(x) = -erf(-x) rounds as this odd expression does for x < 0. */
static double cephes_erf(double x)
{
    double z = x * x;
    return x * polevl(z, NDTR_T, 4) / p1evl(z, NDTR_U, 5);
}

static double cephes_erfc(double x)
{
    if (x < 1.0)
        return 1.0 - cephes_erf(x);
    double z = -x * x;
    if (z < -MAXLOG)
        return 0.0;  /* underflow */
    z = exp(z);
    double p, q;
    if (x < 8.0) {
        p = polevl(x, NDTR_P, 8);
        q = p1evl(x, NDTR_Q, 8);
    } else {
        p = polevl(x, NDTR_R, 5);
        q = p1evl(x, NDTR_S, 6);
    }
    return z * p / q;  /* 0 when z * p underflows */
}

/* out[i] = Phi(x[i]), the standard normal CDF, for i < n. */
void josephus_ndtr(int64_t n, const double *x, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        if (isnan(x[i])) {
            out[i] = NAN;
            continue;
        }
        double a = x[i] * SQRT1_2, z = fabs(a), y;
        if (z < SQRT1_2) {
            y = 0.5 + 0.5 * cephes_erf(a);
        } else {
            y = 0.5 * cephes_erfc(z);
            if (a > 0)
                y = 1.0 - y;
        }
        out[i] = y;
    }
}
