#include "points.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "area/design_space.h"

namespace wsbench {

namespace {

/** FNV-1a over a typed byte stream (lengths prefix strings, so field
 *  boundaries cannot alias). */
class Hasher
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof v); }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void
hashCore(Hasher &h, const ws::SimResult &r)
{
    h.u64(r.completed ? 1 : 0);
    h.u64(r.cycles);
    h.u64(r.useful);
    h.f64(r.aipc);
}

bool
isActivity(const std::string &name)
{
    return name.rfind("activity.", 0) == 0;
}

std::string
hex64(std::uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

} // namespace

std::string
Point::key() const
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s/t%d/d%02zu", kernel->name.c_str(),
                  threads, design);
    return buf;
}

std::vector<ws::DesignPoint>
designGrid(bool tiny)
{
    const std::vector<ws::DesignPoint> all = ws::enumerateCandidates();
    std::vector<ws::DesignPoint> grid;
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (i % 3 == 0 || i + 1 == all.size())
            grid.push_back(all[i]);
    }
    if (tiny)
        grid.resize(std::min<std::size_t>(grid.size(), 2));
    return grid;
}

GraphSet::GraphSet(std::uint64_t seed, BuildHook hook)
    : seed_(seed), hook_(std::move(hook))
{
}

std::shared_ptr<const ws::DataflowGraph>
GraphSet::get(const ws::Kernel &kernel, int threads)
{
    const auto key = std::make_pair(kernel.name, threads);
    auto it = graphs_.find(key);
    if (it != graphs_.end())
        return it->second;
    ws::KernelParams params;
    params.threads = static_cast<std::uint16_t>(threads);
    params.seed = seed_;
    const auto t0 = std::chrono::steady_clock::now();
    auto graph =
        std::make_shared<const ws::DataflowGraph>(kernel.build(params));
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    if (hook_)
        hook_(kernel, threads, *graph, secs);
    graphs_.emplace(key, graph);
    return graph;
}

std::uint64_t
GraphSet::fingerprint(const ws::Kernel &kernel, int threads) const
{
    ws::KernelParams params;
    params.threads = static_cast<std::uint16_t>(threads);
    params.seed = seed_;
    return ws::kernelFingerprint(kernel, params);
}

std::vector<Point>
serialPoints(const std::vector<ws::DesignPoint> &designs)
{
    std::vector<Point> points;
    for (std::size_t d = 0; d < designs.size(); ++d) {
        const ws::ProcessorConfig cfg = ws::toProcessorConfig(designs[d]);
        for (const ws::Kernel &k : ws::kernelRegistry()) {
            if (k.suite != ws::Suite::kSpec && k.suite != ws::Suite::kMedia)
                continue;
            points.push_back(Point{&k, 1, d, cfg});
        }
    }
    return points;
}

std::vector<Point>
splashPoints(const std::vector<ws::DesignPoint> &designs, GraphSet &graphs)
{
    std::vector<Point> points;
    for (std::size_t d = 0; d < designs.size(); ++d) {
        const ws::ProcessorConfig cfg = ws::toProcessorConfig(designs[d]);
        for (const ws::Kernel &k : ws::kernelRegistry()) {
            if (k.suite != ws::Suite::kSplash)
                continue;
            // bench_util's threadCandidates under --quick: the per-thread
            // footprint comes from a 2-thread probe build.
            const std::size_t per_thread = graphs.get(k, 2)->size() / 2;
            const std::uint64_t fit = std::max<std::uint64_t>(
                1, designs[d].instCapacity() /
                       std::max<std::size_t>(1, per_thread));
            int fit_pow2 = 1;
            while (fit_pow2 * 2 <=
                   static_cast<int>(std::min<std::uint64_t>(fit, 64)))
                fit_pow2 *= 2;
            std::set<int> candidates{fit_pow2};
            if (fit_pow2 > 2)
                candidates.insert(fit_pow2 / 2);
            for (int t : candidates)
                points.push_back(Point{&k, t, d, cfg});
        }
    }
    return points;
}

std::uint64_t
resultDigest(const ws::SimResult &result)
{
    Hasher h;
    hashCore(h, result);
    for (const auto &[name, value] : result.report.entries()) {
        if (isActivity(name))
            continue;
        h.str(name);
        h.f64(value);
    }
    return h.value();
}

std::uint64_t
fullDigest(const ws::SimResult &result)
{
    Hasher h;
    hashCore(h, result);
    h.u64(result.pruned ? 1 : 0);
    h.u64(result.checkViolations);
    h.str(result.checkLog);
    h.u64(result.report.entries().size());
    for (const auto &[name, value] : result.report.entries()) {
        h.str(name);
        h.f64(value);
    }
    return h.value();
}

bool
readDigestFile(const std::string &path,
               std::map<std::string, std::uint64_t> *out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key;
        std::string digest;
        if (!(fields >> key >> digest) || digest.size() != 16 ||
            digest.find_first_not_of("0123456789abcdef") !=
                std::string::npos)
            return false;
        (*out)[key] = std::stoull(digest, nullptr, 16);
    }
    return true;
}

bool
writeDigestFile(const std::string &path, const std::vector<Point> &points,
                const std::vector<std::uint64_t> &digests)
{
    std::ofstream out(path);
    for (std::size_t i = 0; i < points.size(); ++i)
        out << points[i].key() << ' ' << hex64(digests[i]) << '\n';
    return static_cast<bool>(out);
}

} // namespace wsbench
