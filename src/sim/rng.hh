/**
 * @file
 * Deterministic random number generation for simulations.
 *
 * Every stochastic model in the simulator (ADC noise, RF channel
 * corruption, sensor traces) draws from one `Rng` owned by the
 * `Simulator`, so a run is fully reproducible from its seed.
 */

#ifndef EDB_SIM_RNG_HH
#define EDB_SIM_RNG_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>

namespace edb::sim {

/**
 * splitmix64 finalizer: the standard 64-bit avalanche mix. Used to
 * derive statistically independent per-world seeds from one fleet
 * seed (`deriveSeed`) so neighbouring world indices do not produce
 * correlated Mersenne twister streams.
 */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/**
 * Deterministic seed derivation: fleet seed × stream index → world
 * seed. Two rounds of splitmix64 over the (seed, stream) pair; never
 * returns 0 so the result is always a valid engine seed.
 */
constexpr std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t stream)
{
    std::uint64_t s = splitmix64(splitmix64(base) ^
                                 splitmix64(stream * 0xA24BAED4963EE407ULL));
    return s == 0 ? 0x9E3779B97F4A7C15ULL : s;
}

/**
 * Mersenne twister with the std::mt19937_64 parameter set.
 *
 * The C++ standard pins the output of
 * `mersenne_twister_engine<uint64_t, 64, 312, 156, ...>` exactly, so
 * this engine produces the same draw sequence as std::mt19937_64 for
 * the same seed (the unit tests assert it word for word). It exists
 * because the analog integration loop draws harvest noise once per
 * sub-step, and the library engine's per-draw bookkeeping dominated
 * that profile: here the twist *and* the tempering run in bulk every
 * 312 draws, so a draw is a buffered load.
 */
class Mt64
{
  public:
    using result_type = std::uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    explicit Mt64(result_type value = defaultSeed) { seed(value); }

    /** Standard seeding recurrence (identical to std::mt19937_64). */
    void
    seed(result_type value)
    {
        state[0] = value;
        for (unsigned i = 1; i < n; ++i)
            state[i] = 6364136223846793005ULL *
                           (state[i - 1] ^ (state[i - 1] >> 62)) +
                       i;
        index = n;
        ++generation;
    }

    result_type
    operator()()
    {
        if (index >= n)
            refill();
        return out[index++];
    }

    static constexpr result_type defaultSeed = 5489;

    /** Words per block: each refill generates this many. */
    static constexpr unsigned blockWords = 312;

    /**
     * Look-ahead access to the current block (see Rng::gaussian).
     * `position()` is the index of the word the next draw returns
     * (`blockWords` once the block is used up); `peek(k)` reads
     * buffered word `k` without drawing it; `skipTo(k)` moves the
     * read index to `k` (position() <= k <= blockWords), which is
     * exactly what `k - position()` draws would do.
     */
    unsigned position() const { return index; }
    result_type peek(unsigned k) const { return out[k]; }
    void skipTo(unsigned k) { index = k; }

    /**
     * Where the engine stands in its stream: the read index plus a
     * generation that every refill, seed and import bumps. Any draw
     * changes it, so a value computed from the words after one
     * cursor is still the next value exactly while the cursor is
     * unchanged. Not part of State: it names a position, it does
     * not restore one.
     */
    std::uint64_t cursor() const { return (generation << 9) | index; }

    /**
     * Full engine state, exportable for snapshots: the 312-word
     * twist state, the tempered output buffer, and the read index.
     * Restoring a saved State resumes the draw stream exactly where
     * it left off, mid-block included (the output buffer is part of
     * the state precisely so a snapshot taken between refills does
     * not replay or skip draws).
     */
    struct State
    {
        result_type state[312];
        result_type out[312];
        std::uint32_t index;
    };

    State
    exportState() const
    {
        State s;
        for (unsigned i = 0; i < n; ++i) {
            s.state[i] = state[i];
            s.out[i] = out[i];
        }
        s.index = index;
        return s;
    }

    void
    importState(const State &s)
    {
        for (unsigned i = 0; i < n; ++i) {
            state[i] = s.state[i];
            out[i] = s.out[i];
        }
        // Clamp a corrupt index to "buffer exhausted": the next draw
        // refills instead of reading out[] out of bounds.
        index = s.index > n ? n : s.index;
        ++generation;
    }

  private:
    static constexpr unsigned n = blockWords;
    static constexpr unsigned m = 156;
    static constexpr result_type upperMask = ~result_type{0} << 31;
    static constexpr result_type lowerMask = ~upperMask;
    static constexpr result_type matrixA = 0xB5026F5AA96619E9ULL;

    void
    refill()
    {
        // Twist (three segments avoid the modulo of the textbook
        // loop), then temper the whole block in one pass the
        // vectorizer likes. Branchless conditional xor of matrixA.
        unsigned i = 0;
        for (; i < n - m; ++i) {
            result_type x =
                (state[i] & upperMask) | (state[i + 1] & lowerMask);
            state[i] = state[i + m] ^ (x >> 1) ^ (-(x & 1) & matrixA);
        }
        for (; i < n - 1; ++i) {
            result_type x =
                (state[i] & upperMask) | (state[i + 1] & lowerMask);
            state[i] =
                state[i + m - n] ^ (x >> 1) ^ (-(x & 1) & matrixA);
        }
        result_type x =
            (state[n - 1] & upperMask) | (state[0] & lowerMask);
        state[n - 1] = state[m - 1] ^ (x >> 1) ^ (-(x & 1) & matrixA);

        for (unsigned k = 0; k < n; ++k) {
            result_type y = state[k];
            y ^= (y >> 29) & 0x5555555555555555ULL;
            y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
            y ^= (y << 37) & 0xFFF7EEE000000000ULL;
            y ^= y >> 43;
            out[k] = y;
        }
        index = 0;
        ++generation;
    }

    result_type state[n];
    result_type out[n];
    unsigned index;
    std::uint64_t generation = 0;
};

/**
 * Thin wrapper around a 64-bit Mersenne twister with convenience
 * samplers used throughout the analog and channel models.
 *
 * Every sampler returns, bit for bit, what the matching libstdc++
 * distribution returns on the same engine (a fresh distribution per
 * call), and consumes the same words: seeded runs keep their
 * historical trajectories. The unit tests pin each one.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 1) : engine(seed) {}

    /** Re-seed the generator (resets the stream). */
    void seed(std::uint64_t s) { engine.seed(s); }

    /** Uniform double in [0, 1): the library's
     *  `canonical() * (1.0 - 0.0) + 0.0`, which is canonical(). */
    double uniform() { return canonical(); }

    /** Uniform double in [lo, hi), as
     *  `std::uniform_real_distribution<double>(lo, hi)` computes it. */
    double
    uniform(double lo, double hi)
    {
        return canonical() * (hi - lo) + lo;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine);
    }

    /**
     * Zero-mean Gaussian with the given standard deviation, equal to
     * `std::normal_distribution<double>(0.0, sigma)(engine)` from a
     * freshly constructed (stateless) distribution: Marsaglia's polar
     * method on canonical() uniforms, returning `y * mult`.
     *
     * The polar step's log() and its accept/reject branch dominated
     * the analog integration profile, so standard normals are
     * computed ahead of use from the engine's already generated,
     * still undrawn words (see Ahead). A call returns the next one
     * and skips the engine past exactly the words that normal used,
     * so every word is drawn once, in order, by the caller that
     * would have drawn it anyway. The look-ahead stands only while
     * the engine's cursor is where the previous call left it: any
     * other draw, refill, seed or import discards it, and the next
     * call fills it again from the engine's new position.
     */
    double
    gaussian(double sigma)
    {
        if (sigma <= 0.0)
            return 0.0;
        if (ahead.cursor != engine.cursor() || ahead.next == ahead.count)
            fillAhead();
        double z;
        if (ahead.next < ahead.count) [[likely]] {
            const unsigned k = ahead.next++;
            engine.skipTo(ahead.end[k]);
            z = ahead.value[k];
        } else {
            // No pair accepted, e.g. at the block end, where a pair
            // may straddle the refill.
            z = polar();
        }
        ahead.cursor = engine.cursor();
        // Matches the library's `ret * stddev + mean` exactly,
        // including the +0.0 (not a no-op for signed zeros).
        return z * sigma + 0.0;
    }

    /** Bernoulli trial: true with probability p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Uniform double in [0, 1) equal, bit for bit, to
     * `std::generate_canonical<double, 53>(raw())`: for a 64-bit
     * engine that specialization is a single draw scaled into [0, 1)
     * with a top-end guard.
     */
    double canonical() { return unit(engine()); }

    /** Access to the raw engine for std distributions. */
    Mt64 &raw() { return engine; }

    /** Export the complete engine state (for snapshots). */
    Mt64::State exportState() const { return engine.exportState(); }

    /** Restore a previously exported engine state. */
    void importState(const Mt64::State &s) { engine.importState(s); }

  private:
    /**
     * `(double)w * 0x1p-64`, guarded below 1.0, without the branch
     * GCC emits for an unsigned-to-double conversion (which random
     * words mispredict half the time). Each 32-bit half converts
     * exactly and `hi * 2^32` is exact, so the sum rounds once, to
     * the same double as `(double)w`; scaling by 2^-64 is exact.
     * Words from 2^64 - 2^10 up round to 2^64 and take the guard.
     */
    static double
    unit(std::uint64_t w)
    {
        const double hi = static_cast<std::uint32_t>(w >> 32);
        const double lo = static_cast<std::uint32_t>(w);
        double r = (hi * 0x1p32 + lo) * 0x1p-64;
        if (r >= 1.0) [[unlikely]]
            r = std::nextafter(1.0, 0.0);
        return r;
    }

    /** The library's polar loop on drawn words; `y * mult`. */
    double
    polar()
    {
        double x, y, r2;
        do {
            x = 2.0 * canonical() - 1.0;
            y = 2.0 * canonical() - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        return y * std::sqrt(-2 * std::log(r2) / r2);
    }

    /**
     * Compute the standard normals of up to `aheadPairs` polar pairs
     * read from the undrawn words of the current block, without
     * drawing them. The first pass converts and tests every pair
     * branch-free and keeps the accepted ones in order; the second
     * runs the independent log/sqrt chains back to back. A pair that
     * would straddle the block end is left to polar(), so a fill at
     * the end of a block may hold nothing.
     */
    void
    fillAhead()
    {
        unsigned j = engine.position();
        const unsigned pairs =
            std::min(aheadPairs, (Mt64::blockWords - j) / 2);
        double r2[aheadPairs] = {};
        unsigned count = 0;
        for (unsigned p = 0; p < pairs; ++p, j += 2) {
            const double x = 2.0 * unit(engine.peek(j)) - 1.0;
            const double y = 2.0 * unit(engine.peek(j + 1)) - 1.0;
            const double s = x * x + y * y;
            ahead.value[count] = y;
            ahead.end[count] = static_cast<std::uint16_t>(j + 2);
            r2[count] = s;
            // !(s > 1.0 || s == 0.0); s is never NaN.
            count += (s <= 1.0) & (s != 0.0);
        }
        for (unsigned k = 0; k < count; ++k)
            ahead.value[k] *= std::sqrt(-2 * std::log(r2[k]) / r2[k]);
        ahead.next = 0;
        ahead.count = count;
    }

    static constexpr unsigned aheadPairs = 32;

    /** Standard normals computed ahead of use (never serialized:
     *  an import discards them and they are computed again). */
    struct Ahead
    {
        /** `y * mult` of each accepted pair, in stream order. */
        double value[aheadPairs] = {};
        /** Engine position just past the words of value[k]. */
        std::uint16_t end[aheadPairs] = {};
        unsigned next = 0;
        unsigned count = 0;
        /** Engine cursor where the last gaussian() call left it. */
        std::uint64_t cursor = 0;
    };

    Mt64 engine;
    Ahead ahead;
};

} // namespace edb::sim

#endif // EDB_SIM_RNG_HH
