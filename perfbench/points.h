/**
 * @file
 * The benchmark's design points: the quick design grid, the kernels of
 * each workload, their thread counts, and the per-point result digests
 * that the golden files pin.
 *
 * Everything here mirrors bench/bench_util.cc under --quick (thinned
 * grid, scale 1, half the 600k-cycle budget, the capacity-fit thread
 * candidates) so a benchmark point is the same simulation a quick
 * harness sweep runs.
 */

#ifndef WS_PERFBENCH_POINTS_H_
#define WS_PERFBENCH_POINTS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "area/area_model.h"
#include "core/simulator.h"
#include "isa/graph.h"
#include "kernels/kernel.h"

namespace wsbench {

/** Cycle budget of every point: bench_util's --quick budget. */
constexpr ws::Cycle kMaxCycles = 300'000;

/** One simulation point of a workload. */
struct Point
{
    const ws::Kernel *kernel = nullptr;
    int threads = 1;
    std::size_t design = 0;  ///< Index into the full quick grid.
    ws::ProcessorConfig cfg;

    /** "gzip/t1/d03": the golden-file key. */
    std::string key() const;
};

/** The quick design grid (every third candidate plus the last). With
 *  @p tiny, only its first two designs (self-test smoke runs). */
std::vector<ws::DesignPoint> designGrid(bool tiny);

/** Builds each (kernel, threads) graph of one seed once. */
class GraphSet
{
  public:
    /** Called after each build with the graph and its build seconds. */
    using BuildHook = std::function<void(const ws::Kernel &, int threads,
                                         const ws::DataflowGraph &,
                                         double seconds)>;

    GraphSet(std::uint64_t seed, BuildHook hook = nullptr);

    std::shared_ptr<const ws::DataflowGraph> get(const ws::Kernel &kernel,
                                                 int threads);

    /** kernelFingerprint of (kernel, threads, scale 1, seed). */
    std::uint64_t fingerprint(const ws::Kernel &kernel, int threads) const;

  private:
    std::uint64_t seed_;
    BuildHook hook_;
    std::map<std::pair<std::string, int>,
             std::shared_ptr<const ws::DataflowGraph>>
        graphs_;
};

/** serial-sweep: @p designs x the nine Spec/Media kernels, 1 thread. */
std::vector<Point> serialPoints(const std::vector<ws::DesignPoint> &designs);

/** splash-grid: @p designs x the six Splash kernels x the quick thread
 *  candidates (capacity-fit power of two and its half). */
std::vector<Point> splashPoints(const std::vector<ws::DesignPoint> &designs,
                                GraphSet &graphs);

/**
 * Identity digest of one result: completed, cycles, useful, aipc and
 * every StatReport entry except activity.* (scheduler bookkeeping that
 * a host-only change may legitimately alter).
 */
std::uint64_t resultDigest(const ws::SimResult &result);

/** Digest over every field simResultsEqual compares (activity.* and
 *  the check fields included), bit for bit. */
std::uint64_t fullDigest(const ws::SimResult &result);

/** Point key -> digest, read from a "key digest" line file. Returns
 *  false when the file cannot be read or a line is malformed. */
bool readDigestFile(const std::string &path,
                    std::map<std::string, std::uint64_t> *out);

/** Write "key digest" lines; returns false on an I/O error. */
bool writeDigestFile(const std::string &path,
                     const std::vector<Point> &points,
                     const std::vector<std::uint64_t> &digests);

} // namespace wsbench

#endif // WS_PERFBENCH_POINTS_H_
