/**
 * @file
 * A fixed unit of host work that does not depend on the simulator, used
 * to measure how fast the host runs at the moment of a pass.
 */

#ifndef WS_PERFBENCH_HOSTSPEED_H_
#define WS_PERFBENCH_HOSTSPEED_H_

#include <vector>

namespace wsbench {

/**
 * Seconds the fixed host work takes right now: a dependent walk over a
 * 256 KiB random ring with integer mixing, run on @p threads threads at
 * once. Returns the median per-thread time. The benchmark probes with
 * its worker count whatever the workload keeps busy: the host's
 * slowdowns come from outside the process, and a two-thread probe
 * followed them more closely than a one-thread probe did, for the
 * single-threaded store-replay passes too.
 */
double hostWorkSeconds(unsigned threads);

/** hostWorkSeconds() on the reference host, by definition. */
constexpr double kReferenceHostWorkSeconds = 0.050;

/**
 * How much slower than the reference host this host ran over a timed
 * interval: the median of the probes taken through it, over the
 * reference. A rate times the slowdown, or a time divided by it, is the
 * figure the reference host would have shown.
 */
double hostSlowdown(std::vector<double> probes);

} // namespace wsbench

#endif // WS_PERFBENCH_HOSTSPEED_H_
