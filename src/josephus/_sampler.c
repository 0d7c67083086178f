/* Seeded sampling kernel of josephus.simulate.
 *
 * Streams: sample i of master seed S reads the uniforms of numpy's
 * Philox4x64-10 keyed (splitmix64(S, i), 0) with a zero counter, bit for
 * bit as josephus.prng.stream(S, i).random(k) returns them.  The counter is
 * incremented before each 4-word block, and a word x becomes the uniform
 * (x >> 11) * 2^-53.  Philox is Salmon et al., "Parallel Random Numbers: As
 * Easy as 1, 2, 3" (SC'11), with numpy's round layout and constants.
 *
 * Coins: a coin is u < p, as np.less thresholds it.  r1 and r2 read one
 * uniform per step; r3 reads a (victim, knife) pair per step.
 *
 * Walk: the survivor of one coin path, by backward relabeling from the
 * knife holder of the last two-person round (see simulate._survivors).
 *
 * Build with -ffp-contract=off and without -ffast-math: the only float
 * operations are exact, and they must stay so.
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

/* The first k uniforms of stream (seed, index). */
static void uniforms(uint64_t seed, uint64_t index, int64_t k, double *u)
{
    uint64_t key = splitmix64(seed, index), block[4];
    for (int64_t i = 0; i < k; i += 4) {
        philox4x64_10((uint64_t)(i / 4) + 1, key, block);
        for (int64_t j = 0; j < 4 && i + j < k; j++)
            u[i + j] = (double)(block[j] >> 11) * 0x1.0p-53;
    }
}

/* Sample `index`'s uniforms into u (n-1 of them, 2(n-1) for r3) and its
 * coins into victim[0..n-2] and, for r3, knife[0..n-2]. */
void josephus_draw(int kind, int64_t n, double p, double q, uint64_t seed,
                   uint64_t index, double *u, uint8_t *victim, uint8_t *knife)
{
    int64_t steps = n - 1;
    if (kind == R3) {
        uniforms(seed, index, 2 * steps, u);
        for (int64_t t = 0; t < steps; t++) {
            victim[t] = u[2 * t] < p;
            knife[t] = u[2 * t + 1] < q;
        }
    } else {
        uniforms(seed, index, steps, u);
        for (int64_t t = 0; t < steps; t++)
            victim[t] = u[t] < p;
    }
}

/* Survivor of each of `count` coin paths into out[0..count-1].  Coins are
 * step-major: step t of path j is victim[t * count + j] (knife likewise, read
 * only for r3).  Round M = 3..N maps the survivor's label s in the
 * (M-1)-person frame back to the M-person frame, reading step N-M. */
void josephus_walk(int kind, int64_t n, int64_t count, const uint8_t *victim,
                   const uint8_t *knife, int64_t *out)
{
    for (int64_t j = 0; j < count; j++) {
        int64_t s = 0;
        for (int64_t m = 3; m <= n; m++) {
            int64_t t = (n - m) * count + j;
            int64_t ahead = s + 2 == m ? 0 : s + 2;  /* victim right (pass right for r3) */
            if (kind == R1)
                s = victim[t] ? ahead : m - 2 - s;  /* a flip mirrors the circle */
            else if (kind == R2)
                s = victim[t] ? ahead : s == 0 ? m - 2 : s - 1;
            else if (victim[t])  /* r3, victim right; pass left: 0 -> M-1, 1 -> 0 */
                s = knife[t] ? ahead : s == 0 ? m - 1 : s == 1 ? 0 : s;
            else  /* r3, victim left: pass right s -> s+1, pass left s -> s-1, mod M-1 */
                s = knife[t] ? (s + 1 == m - 1 ? 0 : s + 1) : s == 0 ? m - 2 : s - 1;
        }
        out[j] = s;
    }
}

/* Add the survivor of each of samples first .. first+count-1 to counts[].
 * u, victim and knife are scratch buffers of 2(n-1), n-1 and n-1 entries. */
void josephus_sample(int kind, int64_t n, double p, double q, uint64_t seed,
                     uint64_t first, int64_t count, double *u, uint8_t *victim,
                     uint8_t *knife, int64_t *counts)
{
    for (int64_t i = 0; i < count; i++) {
        int64_t s;
        josephus_draw(kind, n, p, q, seed, first + (uint64_t)i, u, victim, knife);
        josephus_walk(kind, n, 1, victim, knife, &s);
        counts[s]++;
    }
}
