/**
 * @file
 * In-memory spans for the benchmark's traced run.
 *
 * A span is one timed call into a layer: name, start, end, the span
 * that caused it, and the point (request) it belongs to. Spans stay in
 * memory while the run measures and are written out once at exit in
 * the Chrome trace-event format, which chrome://tracing and Perfetto
 * open directly.
 */

#ifndef WS_PERFBENCH_SPANS_H_
#define WS_PERFBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace wsbench {

using Clock = std::chrono::steady_clock;

struct Span
{
    const char *name = "";
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0: a root span.
    int point = -1;            ///< Point index; -1 for set-up spans.
    int worker = 0;
    std::int64_t startNs = 0;  ///< Since the recorder's epoch.
    std::int64_t endNs = 0;
    std::uint64_t count = 0;   ///< Work done (instructions, bytes).
    std::string detail;        ///< e.g. the graph a build produced.

    double seconds() const { return (endNs - startNs) * 1e-9; }
};

/** Small dense id of the calling thread (0 for the first caller). */
int workerIndex();

class SpanRecorder
{
  public:
    SpanRecorder() : epoch_(Clock::now()) {}

    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    std::uint32_t nextId() { return ++lastId_; }

    /** Time @p fn as one span and record it. */
    template <typename Fn>
    void
    time(const char *name, std::uint32_t parent, int point, Fn &&fn,
         std::vector<Span> *into = nullptr)
    {
        Span s;
        s.name = name;
        s.id = nextId();
        s.parent = parent;
        s.point = point;
        s.worker = workerIndex();
        s.startNs = now();
        fn(s);
        s.endNs = now();
        if (into != nullptr)
            into->push_back(std::move(s));
        else
            add({std::move(s)});
    }

    void add(std::vector<Span> spans);

    /** Take every recorded span (the recorder is left empty). */
    std::vector<Span> take();

  private:
    Clock::time_point epoch_;
    std::atomic<std::uint32_t> lastId_{0};
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Write @p spans as a Chrome trace-event JSON file; false on I/O
 *  error. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans,
                      const std::string &label);

} // namespace wsbench

#endif // WS_PERFBENCH_SPANS_H_
