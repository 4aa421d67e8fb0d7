#include "sim/random.hpp"

#include "sim/logging.hpp"

namespace ccsim::sim {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

}  // namespace

void
Rng::reseed(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitmix64(sm);
    hasCachedNormal = false;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    if (n == 0)
        panic("Rng::uniformInt: n must be > 0");
    // Lemire-style rejection-free-enough bounded generation.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
        std::uint64_t threshold = -n % n;
        while (lo < threshold) {
            x = next();
            m = static_cast<__uint128_t>(x) * n;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    if (hi < lo)
        panic("Rng::uniformInt: hi < lo");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniformInt(span));
}

double
Rng::exponential(double mean)
{
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::normal()
{
    if (hasCachedNormal) {
        hasCachedNormal = false;
        return cachedNormal;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal = r * std::sin(theta);
    hasCachedNormal = true;
    return r * std::cos(theta);
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(mu + sigma * normal());
}

LognormalParams
Rng::lognormalParams(double mean, double cv)
{
    // mean = exp(mu + sigma^2/2); cv^2 = exp(sigma^2) - 1.
    const double sigma2 = std::log(1.0 + cv * cv);
    return {std::log(mean) - 0.5 * sigma2, std::sqrt(sigma2)};
}

double
Rng::lognormalMeanCv(double mean, double cv)
{
    const LognormalParams p = lognormalParams(mean, cv);
    return lognormal(p.mu, p.sigma);
}

std::uint64_t
Rng::poisson(double lambda)
{
    if (lambda <= 0)
        return 0;
    if (lambda < 30.0) {
        // Knuth's product method.
        const double limit = std::exp(-lambda);
        double prod = uniform();
        std::uint64_t n = 0;
        while (prod > limit) {
            prod *= uniform();
            ++n;
        }
        return n;
    }
    // Normal approximation with continuity correction; fine for
    // workload-generation purposes at large lambda.
    const double x = normal(lambda, std::sqrt(lambda));
    return x < 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xD1B54A32D192ED03ull);
}

Rng
Rng::forStream(std::uint64_t master, std::uint64_t stream)
{
    // Diffuse the stream counter through one SplitMix64 finalization so
    // consecutive ids (0, 1, 2, ...) select unrelated child seeds, then
    // fold it into a master-derived value. The xor constant decouples
    // stream 0 from the plain Rng(master) seeding path. The combined
    // seed feeds the normal reseed() expansion (4 further SplitMix64
    // steps into xoshiro256** state).
    std::uint64_t c = stream;
    const std::uint64_t mixedStream = splitmix64(c);
    std::uint64_t m = master ^ 0xA3EC647659359ACDull;
    const std::uint64_t mixedMaster = splitmix64(m);
    return Rng(mixedMaster ^ mixedStream);
}

}  // namespace ccsim::sim
