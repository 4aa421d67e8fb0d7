/**
 * @file
 * Deterministic pseudo-random number generation for simulations.
 *
 * We implement xoshiro256** (Blackman & Vigna) seeded via SplitMix64 so that
 * every experiment is exactly reproducible from a single 64-bit seed, across
 * standard libraries and platforms (std::mt19937 distributions are not
 * portable across implementations).
 */
#pragma once

#include <cmath>
#include <cstdint>

namespace ccsim::sim {

/** Parameters of the normal underlying a lognormal distribution. */
struct LognormalParams {
    double mu;
    double sigma;
};

/**
 * xoshiro256** PRNG.
 *
 * Satisfies the UniformRandomBitGenerator concept, so it can also be
 * plugged into <random> distributions when portability does not matter.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

    /** Re-seed the generator. */
    void reseed(std::uint64_t seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return UINT64_MAX; }

    /** Next raw 64-bit value. */
    result_type operator()() { return next(); }

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /** Uniform integer in [0, n). @pre n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with probability @p p of returning true. */
    bool bernoulli(double p) { return uniform() < p; }

    /** Exponential variate with mean @p mean. */
    double exponential(double mean);

    /** Standard normal variate (Box-Muller, cached pair). */
    double normal();

    /** Normal variate with the given mean and standard deviation. */
    double normal(double mean, double sigma) { return mean + sigma * normal(); }

    /**
     * Lognormal variate parameterized by the mean and coefficient of
     * variation of the *resulting* distribution (more convenient for
     * service-time modelling than mu/sigma of the underlying normal).
     */
    double lognormalMeanCv(double mean, double cv);

    /**
     * The (mu, sigma) that lognormalMeanCv(@p mean, @p cv) draws with:
     * a caller drawing many variates of one distribution computes them
     * once and calls lognormal(mu, sigma), bit for bit the same draw.
     */
    static LognormalParams lognormalParams(double mean, double cv);

    /** Lognormal variate with underlying normal parameters mu, sigma. */
    double lognormal(double mu, double sigma);

    /** Poisson variate with rate lambda (Knuth for small, PTRS for large). */
    std::uint64_t poisson(double lambda);

    /** Split off an independent child stream (for per-component RNGs). */
    Rng split();

    /**
     * Derive the @p stream-th child stream of a master seed.
     *
     * Counter-based (unlike split(), which advances the parent): the
     * child depends only on the (master, stream) pair, never on how many
     * sibling streams exist or the order they are created. A partitioned
     * simulation seeds partition p with forStream(masterSeed, p), so the
     * same master seed yields the same per-partition sequences whether
     * the run uses 1 worker thread or 8 — per-seed determinism survives
     * resharding.
     */
    static Rng forStream(std::uint64_t master, std::uint64_t stream);

  private:
    std::uint64_t s[4];
    bool hasCachedNormal = false;
    double cachedNormal = 0.0;
};

}  // namespace ccsim::sim
