#include "hostspeed.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

namespace wsbench {

namespace {

constexpr std::size_t kSlots = 64 * 1024;  // 256 KiB of uint32_t.
constexpr std::size_t kSteps = 6'000'000;

/** One random cycle through every slot (fixed xorshift shuffle). */
const std::vector<std::uint32_t> &
ring()
{
    static const std::vector<std::uint32_t> r = [] {
        std::vector<std::uint32_t> perm(kSlots);
        std::iota(perm.begin(), perm.end(), 0u);
        std::uint64_t x = 88172645463325252ULL;
        for (std::size_t k = kSlots - 1; k > 0; --k) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(perm[k], perm[x % (k + 1)]);
        }
        std::vector<std::uint32_t> next(kSlots);
        for (std::size_t k = 0; k < kSlots; ++k)
            next[perm[k]] = perm[(k + 1) % kSlots];
        return next;
    }();
    return r;
}

double
walk(std::uint64_t *sink)
{
    const std::vector<std::uint32_t> &r = ring();
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t i = 0;
    std::uint64_t h = 1;
    for (std::size_t s = 0; s < kSteps; ++s) {
        i = r[i];
        h = (h ^ i) * 0x100000001b3ULL;
        h ^= h >> 29;
    }
    *sink = h;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

double
hostWorkSeconds(unsigned threads)
{
    ring();
    std::vector<double> secs(threads);
    std::vector<std::uint64_t> sinks(threads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&, t] { secs[t] = walk(&sinks[t]); });
    for (std::thread &t : pool)
        t.join();
    std::sort(secs.begin(), secs.end());
    return secs[secs.size() / 2];
}

double
hostSlowdown(std::vector<double> probes)
{
    std::sort(probes.begin(), probes.end());
    const std::size_t n = probes.size();
    const double median =
        n % 2 == 1 ? probes[n / 2] : 0.5 * (probes[n / 2 - 1] + probes[n / 2]);
    return median / kReferenceHostWorkSeconds;
}

} // namespace wsbench
