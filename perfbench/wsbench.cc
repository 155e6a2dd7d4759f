/**
 * @file
 * wsbench — the repository benchmark driver.
 *
 *   wsbench --workload serial-sweep|splash-grid|store-replay --seed N
 *           --seconds S --trace 0|1 [--workers N] [--tiny]
 *           [--golden-dir DIR] [--work-dir DIR] [--store DIR]
 *           [--trace-out FILE]
 *   wsbench --populate DIR --seed N [--workers N] [--tiny]
 *   wsbench --write-golden FILE --seed N [--workers N]
 *
 * A run sets the workload up the way bench_util's runAll does (kernel
 * graphs, the design grid, one static bound per point), then submits
 * the whole batch to a fresh SweepEngine, pass after pass, until
 * --seconds have been measured. One client submits a batch and waits
 * for all of it (a closed loop). Every point's result is checked
 * against the golden digests of its seed and against the run's other
 * passes. The last stdout line is one JSON object with the metrics.
 *
 * --trace 1 instead alternates traced and untraced passes. A traced
 * pass does the engine's per-point work by calling each layer's public
 * functions directly and records a span around every call; the
 * per-layer metrics are aggregates of those spans and of the results.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "core/processor.h"
#include "core/sim_io.h"
#include "driver/static_prune.h"
#include "driver/sweep_engine.h"
#include "driver/thread_pool.h"
#include "place/placement.h"
#include "hostspeed.h"
#include "points.h"
#include "spans.h"
#include "verify/verifier.h"

namespace fs = std::filesystem;

namespace wsbench {
namespace {

enum class Workload
{
    kSerialSweep,
    kSplashGrid,
    kStoreReplay,
};

struct Args
{
    Workload workload = Workload::kSerialSweep;
    std::string workloadName;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned workers = 2;
    bool tiny = false;
    std::string goldenDir;
    std::string workDir = ".bench_build/work";
    std::string store;        ///< store-replay: the populated store.
    std::string traceOut;
    std::string populate;     ///< --populate: output directory.
    std::string writeGolden;  ///< --write-golden: output file.
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "wsbench: %s\n"
                 "usage: wsbench --workload serial-sweep|splash-grid|"
                 "store-replay --seed N --seconds S --trace 0|1\n"
                 "               [--workers N] [--tiny] [--golden-dir DIR] "
                 "[--work-dir DIR]\n"
                 "               [--store DIR] [--trace-out FILE]\n"
                 "       wsbench --populate DIR --seed N [--workers N] "
                 "[--tiny]\n"
                 "       wsbench --write-golden FILE --seed N "
                 "[--workers N]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos ||
        text.size() > 19)
        usage(("bad value for " + flag + ": '" + text + "'").c_str());
    return std::stoull(text);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            a.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") {
            a.workloadName = value;
            have_workload = true;
            if (value == "serial-sweep")
                a.workload = Workload::kSerialSweep;
            else if (value == "splash-grid")
                a.workload = Workload::kSplashGrid;
            else if (value == "store-replay")
                a.workload = Workload::kStoreReplay;
            else
                usage(("unknown workload '" + value + "'").c_str());
        } else if (flag == "--seed") {
            a.seed = parseUnsigned(flag, value);
        } else if (flag == "--seconds") {
            a.seconds = static_cast<double>(parseUnsigned(flag, value));
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--workers") {
            a.workers = static_cast<unsigned>(parseUnsigned(flag, value));
            if (a.workers == 0 || a.workers > 64)
                usage("--workers must be 1..64");
        } else if (flag == "--golden-dir") {
            a.goldenDir = value;
        } else if (flag == "--work-dir") {
            a.workDir = value;
        } else if (flag == "--store") {
            a.store = value;
        } else if (flag == "--trace-out") {
            a.traceOut = value;
        } else if (flag == "--populate") {
            a.populate = value;
        } else if (flag == "--write-golden") {
            a.writeGolden = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!a.populate.empty() || !a.writeGolden.empty()) {
        // Both cover the store-replay point set (every point of both
        // cold sweeps).
        a.workload = Workload::kStoreReplay;
        a.workloadName = "store-replay";
    } else {
        if (!have_workload)
            usage("--workload is required");
        if (a.workload == Workload::kStoreReplay && a.store.empty())
            usage("store-replay needs --store (a --populate directory)");
    }
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile, @p q in [0, 100]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Set-up: the work runAll does before it submits a batch.
// ---------------------------------------------------------------------

struct Setup
{
    std::vector<ws::DesignPoint> designs;
    std::unique_ptr<GraphSet> graphs;
    std::vector<Point> points;
    std::vector<ws::SimJob> jobs;
    std::unique_ptr<ws::ProfileCache> profiles;
};

/** Graphs, grid, points and one placement-resolved bound per point.
 *  With @p rec, each graph build and bound is a set-up span. */
Setup
buildSetup(const Args &args, SpanRecorder *rec)
{
    Setup s;
    s.designs = designGrid(args.tiny);
    GraphSet::BuildHook hook;
    if (rec != nullptr) {
        hook = [rec](const ws::Kernel &k, int threads,
                     const ws::DataflowGraph &g, double secs) {
            Span span;
            span.name = "kernels.build";
            span.id = rec->nextId();
            span.worker = workerIndex();
            span.endNs = rec->now();
            span.startNs =
                span.endNs - static_cast<std::int64_t>(secs * 1e9);
            span.count = g.size();
            span.detail = k.name + "/t" + std::to_string(threads);
            rec->add({std::move(span)});
        };
    }
    s.graphs = std::make_unique<GraphSet>(args.seed, std::move(hook));
    if (args.workload != Workload::kSplashGrid)
        s.points = serialPoints(s.designs);
    if (args.workload != Workload::kSerialSweep) {
        for (Point &p : splashPoints(s.designs, *s.graphs))
            s.points.push_back(std::move(p));
    }

    s.profiles = std::make_unique<ws::ProfileCache>();
    s.jobs.reserve(s.points.size());
    for (const Point &p : s.points) {
        ws::SimJob job;
        job.graph = s.graphs->get(*p.kernel, p.threads);
        job.cfg = p.cfg;
        job.maxCycles = kMaxCycles;
        job.graphFp = s.graphs->fingerprint(*p.kernel, p.threads);
        auto bound = [&] {
            const ws::BoundBreakdown b =
                s.profiles->boundFor(*job.graph, job.graphFp, job.cfg);
            job.staticBound = b.bound;
            job.boundTerm = b.binding;
        };
        if (rec != nullptr) {
            rec->time("analyze.bound", 0, -1, [&](Span &span) {
                bound();
                span.detail = p.key();
            });
        } else {
            bound();
        }
        s.jobs.push_back(std::move(job));
    }
    return s;
}

std::unique_ptr<ws::SweepEngine>
openEngine(const std::string &store, unsigned workers)
{
    ws::SweepEngine::Options o;
    o.jobs = workers;
    o.progress = false;
    o.label = "wsbench";
    o.cacheDir = store;
    return std::make_unique<ws::SweepEngine>(o);
}

ws::SimCache::Key
jobKey(const ws::SimJob &job)
{
    return ws::SimCache::Key{job.graphFp, job.cfg.fingerprint(),
                             job.maxCycles};
}

/**
 * The store each pass starts on, under the run's work directory. Cold
 * workloads start every pass on a fresh, empty store. store-replay
 * starts on a hard-linked copy of the populated store, kept across
 * passes while no pass writes to it: the engine replaces a record by
 * rename, never in place, so a pass that re-writes a rejected record
 * leaves the populated original untouched, and the next pass gets a
 * fresh copy.
 */
class PassStores
{
  public:
    PassStores(std::string work, std::string populated)
        : work_(std::move(work)), populated_(std::move(populated))
    {
    }

    /** The next pass's store: the current one when @p keep, else a
     *  fresh one (the current one is removed). */
    const std::string &
    next(bool keep)
    {
        if (keep && !current_.empty())
            return current_;
        std::error_code ec;
        if (!current_.empty())
            fs::remove_all(current_, ec);
        current_ = work_ + "/store-" + std::to_string(count_++);
        fs::remove_all(current_);
        if (!populated_.empty()) {
            fs::copy(populated_, current_,
                     fs::copy_options::recursive |
                         fs::copy_options::create_hard_links);
        }
        return current_;
    }

  private:
    std::string work_;
    std::string populated_;
    std::string current_;
    int count_ = 0;
};

// ---------------------------------------------------------------------
// Passes.
// ---------------------------------------------------------------------

double
statOr0(const ws::StatReport &r, const char *name)
{
    return r.has(name) ? r.get(name) : 0.0;
}

/** Sum of simulated counts over the points a pass simulated. */
struct SimTotals
{
    double cycles = 0, active = 0, skipped = 0, incomplete = 0;
    std::map<std::string, double> stats;
};

SimTotals
simTotals(const std::vector<ws::SimResult> &results,
          const std::vector<char> &simulated)
{
    static const char *const kStats[] = {
        "pe.executed",     "pe.rejected",   "pe.bank_conflicts",
        "pe.wave_throttled", "match.misses", "istore.misses",
        "sb.requests",     "l1.misses",     "home.l2_misses",
        "traffic.total",   "traffic.inter_cluster.operand",
        "traffic.inter_cluster.memory", "traffic.congestion_events",
    };
    SimTotals t;
    for (const char *s : kStats)
        t.stats[s] = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (simulated[i] == 0)
            continue;
        const ws::SimResult &r = results[i];
        t.cycles += static_cast<double>(r.cycles);
        t.active += statOr0(r.report, "activity.active_cycles");
        t.skipped += statOr0(r.report, "activity.skipped_cycles");
        t.incomplete += r.completed ? 0.0 : 1.0;
        for (auto &[name, value] : t.stats)
            value += statOr0(r.report, name.c_str());
    }
    return t;
}

struct Pass
{
    bool traced = false;
    double wall = 0.0;
    std::int64_t endNs = 0;    ///< Traced passes: batch end.
    std::vector<ws::SimResult> results;
    std::vector<char> failed;     ///< Threw, or a replay lookup missed.
    std::vector<char> simulated;  ///< Traced passes: point simulated.
    ws::SimCacheStats cache;
    std::vector<Span> spans;
    double recordBytes = 0.0;     ///< Mean store record size.
    SimTotals sim;                ///< Traced passes (results are
                                  ///  dropped once checked).
    std::size_t failures = 0;     ///< Filled by checkPass().
};

/** An untraced pass: exactly what runAll submits. */
Pass
enginePass(ws::SweepEngine &engine, const std::vector<ws::SimJob> &jobs)
{
    Pass pass;
    const auto t0 = Clock::now();
    pass.results = engine.run(jobs);
    pass.wall = secondsSince(t0);
    pass.failed.assign(jobs.size(), 0);
    pass.cache = engine.cache().stats();
    return pass;
}

/** The spans of one point: a root `point` span (the request) and one
 *  child span per layer call. */
class PointTrace
{
  public:
    PointTrace(SpanRecorder &rec, int index) : rec_(rec)
    {
        root_.name = "point";
        root_.id = rec.nextId();
        root_.point = index;
        root_.worker = workerIndex();
        root_.startNs = rec.now();
    }

    template <typename Fn>
    void
    child(const char *name, Fn &&fn)
    {
        rec_.time(name, root_.id, root_.point, fn, &spans_);
    }

    /** Close the root span and hand every span to the recorder. */
    void
    finish()
    {
        root_.endNs = rec_.now();
        spans_.push_back(std::move(root_));
        rec_.add(std::move(spans_));
    }

  private:
    SpanRecorder &rec_;
    Span root_;
    std::vector<Span> spans_;
};

/** The engine's per-point work for a cold point (SweepEngine::run's
 *  lookup, runSimulation, insert), one span per layer call. place() and
 *  verify() repeat what the Processor ctor does internally, with the
 *  ctor's exact arguments, as sibling spans. */
void
tracedColdPoint(SpanRecorder &rec, ws::SimCache &cache,
                const ws::SimJob &job, int index, Pass &pass)
{
    PointTrace trace(rec, index);
    auto child = [&](const char *name, auto &&fn) { trace.child(name, fn); };
    try {
        const ws::SimCache::Key key = jobKey(job);
        ws::SimResult result;
        bool hit = false;
        child("store.lookup",
              [&](Span &) { hit = cache.lookup(key, &result); });
        if (!hit) {
            // Processor's ctor wires the cluster count into the memory
            // and mesh configs before it places and verifies.
            ws::ProcessorConfig wired = job.cfg;
            wired.memory.clusters = wired.clusters;
            wired.mesh.clusters = wired.clusters;
            child("place", [&](Span &) {
                const ws::Placement p =
                    ws::place(*job.graph, wired.placementGeometry(),
                              wired.placement, wired.seed);
                (void)p;
            });
            child("verify", [&](Span &) {
                const ws::VerifyReport r = ws::verify(*job.graph, wired);
                (void)r;
            });
            std::unique_ptr<ws::Processor> proc;
            child("core.build", [&](Span &) {
                proc = std::make_unique<ws::Processor>(*job.graph,
                                                       job.cfg);
            });
            child("core.run", [&](Span &) {
                result.completed = proc->run(job.maxCycles);
            });
            // runSimulation's result collection, and the machine's
            // teardown when it returns.
            child("core.report", [&](Span &) {
                result.cycles = proc->cycle();
                result.useful = proc->usefulExecuted();
                result.aipc = proc->aipc();
                result.report = proc->report();
                if (proc->checker() != nullptr) {
                    result.checkViolations =
                        proc->checker()->report().violationCount();
                    result.checkLog = proc->checker()->report().render();
                }
                proc.reset();
            });
            ws::Json image;
            child("sim_io.encode",
                  [&](Span &) { image = ws::simResultToJson(result); });
            child("json.dump",
                  [&](Span &s) { s.count = image.dump().size(); });
            child("store.insert",
                  [&](Span &) { cache.insert(key, result); });
            pass.simulated[index] = 1;
        }
        pass.results[index] = std::move(result);
    } catch (const std::exception &e) {
        pass.failed[index] = 1;
        std::fprintf(stderr, "wsbench: point %d threw: %s\n", index,
                     e.what());
    }
    trace.finish();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** A replayed point: the engine's lookup, then json.parse and
 *  sim_io.decode timed again on the record's bytes (read before the
 *  point span opens). */
void
tracedReplayPoint(SpanRecorder &rec, ws::SimCache &cache,
                  const ws::SimJob &job, int index, Pass &pass)
{
    const ws::SimCache::Key key = jobKey(job);
    const std::string bytes = readFile(cache.disk()->recordPath(key));

    PointTrace trace(rec, index);
    auto child = [&](const char *name, auto &&fn) { trace.child(name, fn); };
    ws::SimResult served;
    bool hit = false;
    child("store.lookup", [&](Span &) { hit = cache.lookup(key, &served); });
    ws::Json record;
    bool parsed = false;
    child("json.parse", [&](Span &s) {
        record = ws::Json::parse(bytes, &parsed);
        s.count = bytes.size();
    });
    ws::SimResult decoded;
    bool decodedOk = false;
    child("sim_io.decode", [&](Span &) {
        const ws::Json *image = parsed ? record.find("result") : nullptr;
        decodedOk =
            image != nullptr && ws::simResultFromJson(*image, &decoded);
    });
    trace.finish();

    if (!hit || !decodedOk || !ws::simResultsEqual(served, decoded))
        pass.failed[index] = 1;
    pass.results[index] = std::move(served);
}

Pass
tracedPass(SpanRecorder &rec, ws::SimCache &cache,
           const std::vector<ws::SimJob> &jobs, bool replay,
           unsigned workers)
{
    Pass pass;
    pass.traced = true;
    const std::size_t n = jobs.size();
    pass.results.resize(n);
    pass.failed.assign(n, 0);
    pass.simulated.assign(n, 0);
    // Like SweepEngine::run: hits are served on the calling thread, and
    // misses go to the pool only when there are workers to spread over.
    std::unique_ptr<ws::ThreadPool> pool;
    if (!replay && workers > 1 && n > 1)
        pool = std::make_unique<ws::ThreadPool>(workers);
    auto point = [&](std::size_t i) {
        if (replay)
            tracedReplayPoint(rec, cache, jobs[i], static_cast<int>(i), pass);
        else
            tracedColdPoint(rec, cache, jobs[i], static_cast<int>(i), pass);
    };
    const auto t0 = Clock::now();
    if (pool != nullptr) {
        ws::parallelFor(*pool, n, point);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            point(i);
    }
    pass.endNs = rec.now();
    pass.wall = secondsSince(t0);
    pool.reset();
    pass.spans = rec.take();
    pass.cache = cache.stats();
    return pass;
}

// ---------------------------------------------------------------------
// Correctness.
// ---------------------------------------------------------------------

struct Checks
{
    bool haveGolden = false;
    std::map<std::string, std::uint64_t> golden;    ///< resultDigest.
    bool replay = false;
    std::map<std::string, std::uint64_t> manifest;  ///< fullDigest.
    std::vector<std::uint64_t> reference;  ///< First pass, fullDigest.
};

/**
 * Count the pass's failed points: a point fails if it threw, if its
 * digest differs from its golden, if its full result differs from the
 * run's first pass (traced and untraced alike), or, on store-replay, if
 * it was not served from disk or differs from what population wrote.
 */
void
checkPass(const std::vector<Point> &points, Checks &checks, Pass &pass)
{
    const std::size_t n = points.size();
    const bool first = checks.reference.empty();
    if (first)
        checks.reference.resize(n);
    std::size_t failures = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const ws::SimResult &r = pass.results[i];
        const std::string key = points[i].key();
        const std::uint64_t full = fullDigest(r);
        bool bad = pass.failed[i] != 0;
        if (checks.haveGolden) {
            auto it = checks.golden.find(key);
            bad = bad || it == checks.golden.end() ||
                  it->second != resultDigest(r);
        }
        if (checks.replay) {
            auto it = checks.manifest.find(key);
            bad = bad || it == checks.manifest.end() || it->second != full;
        }
        if (first)
            checks.reference[i] = full;
        else
            bad = bad || checks.reference[i] != full;
        if (bad && failures < 5) {
            std::fprintf(stderr, "wsbench: point %s failed its check\n",
                         key.c_str());
        }
        failures += bad ? 1 : 0;
    }
    if (checks.replay && !pass.traced) {
        // The engine does not say which points it re-simulated, only
        // how many lookups the disk tier served.
        const std::size_t from_disk =
            static_cast<std::size_t>(pass.cache.diskHits);
        failures += n - std::min(n, from_disk);
    }
    pass.failures = std::min(failures, n);
}

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        if (!std::isfinite(value))
            nonFinite_ = true;
        ws::Json m = ws::Json::object();
        m["value"] = value;
        m["unit"] = unit;
        json_[name] = std::move(m);
        rows_.push_back({name, value, unit});
    }

    void
    print() const
    {
        for (const Row &r : rows_)
            std::printf("%-28s %16.6g %s\n", r.name.c_str(), r.value,
                        r.unit.c_str());
    }

    bool nonFinite() const { return nonFinite_; }
    ws::Json take() { return std::move(json_); }

  private:
    struct Row
    {
        std::string name;
        double value;
        std::string unit;
    };
    ws::Json json_ = ws::Json::object();
    std::vector<Row> rows_;
    bool nonFinite_ = false;
};

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof usage);
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double
spanSum(const std::vector<Span> &spans, const char *name)
{
    double s = 0.0;
    for (const Span &span : spans) {
        if (std::strcmp(span.name, name) == 0)
            s += span.seconds();
    }
    return s;
}

double
spanCount(const std::vector<Span> &spans, const char *name)
{
    double n = 0.0;
    for (const Span &span : spans)
        n += std::strcmp(span.name, name) == 0 ? 1.0 : 0.0;
    return n;
}

/** Median over traced passes of a per-pass value. */
template <typename Fn>
double
perPass(const std::vector<const Pass *> &passes, Fn &&fn)
{
    std::vector<double> v;
    for (const Pass *p : passes)
        v.push_back(fn(*p));
    return median(std::move(v));
}

void
layerMetrics(const Args &args, const Setup &setup,
             const std::vector<Span> &setupSpans,
             const std::vector<Pass> &passes, Metrics &m)
{
    std::vector<const Pass *> traced;
    std::vector<double> untracedWalls;
    for (const Pass &p : passes) {
        if (p.traced)
            traced.push_back(&p);
        else
            untracedWalls.push_back(p.wall);
    }
    const Pass &first = *traced.front();
    const double n = static_cast<double>(setup.points.size());

    double insts = 0;
    for (const Span &s : setupSpans) {
        if (std::strcmp(s.name, "kernels.build") == 0)
            insts += static_cast<double>(s.count);
    }
    m.add("kernels.build_s", spanSum(setupSpans, "kernels.build"), "s");
    m.add("kernels.graphs", spanCount(setupSpans, "kernels.build"), "count");
    m.add("kernels.insts", insts, "count");
    m.add("area.designs", static_cast<double>(setup.designs.size()), "count");
    m.add("analyze.bound_s", spanSum(setupSpans, "analyze.bound"), "s");
    m.add("analyze.bound_calls", spanCount(setupSpans, "analyze.bound"),
          "count");
    m.add("analyze.placed_profiles",
          static_cast<double>(setup.profiles->placedSize()), "count");

    auto passSum = [&](const char *name) {
        return perPass(traced,
                       [&](const Pass &p) { return spanSum(p.spans, name); });
    };
    m.add("place.s", passSum("place"), "s");
    m.add("verify.s", passSum("verify"), "s");

    const SimTotals &sim = first.sim;
    std::vector<double> pointMs;
    std::vector<double> lookupUs;
    double pointSum = 0.0;
    double childSum = 0.0;
    for (const Pass *p : traced) {
        for (const Span &s : p->spans) {
            if (std::strcmp(s.name, "point") == 0) {
                pointMs.push_back(s.seconds() * 1e3);
                pointSum += s.seconds();
            } else {
                childSum += s.seconds();
                if (std::strcmp(s.name, "store.lookup") == 0)
                    lookupUs.push_back(s.seconds() * 1e6);
            }
        }
    }
    m.add("core.build_s", passSum("core.build"), "s");
    m.add("core.run_s", passSum("core.run"), "s");
    m.add("core.report_s", passSum("core.report"), "s");
    m.add("core.point_ms.p50", percentile(pointMs, 50), "ms");
    m.add("core.point_ms.p95", percentile(pointMs, 95), "ms");
    m.add("core.sim_cycles", sim.cycles, "count");
    m.add("core.active_cycles", sim.active, "count");
    m.add("core.skipped_cycles", sim.skipped, "count");
    m.add("core.incomplete", sim.incomplete, "count");
    const double comp = sim.active + sim.skipped;
    m.add("core.skip_rate", comp == 0 ? 0.0 : sim.skipped / comp, "ratio");
    auto perRunSecond = [&](double work) {
        return perPass(traced, [&](const Pass &p) {
            const double run = spanSum(p.spans, "core.run");
            return run == 0.0 ? 0.0 : work / run;
        });
    };
    m.add("core.sim_cycles_per_s", perRunSecond(sim.cycles), "1/s");
    m.add("core.insts_per_s", perRunSecond(sim.stats.at("pe.executed")),
          "1/s");

    const auto &st = sim.stats;
    m.add("pe.executed", st.at("pe.executed"), "count");
    m.add("pe.rejected", st.at("pe.rejected"), "count");
    m.add("pe.bank_conflicts", st.at("pe.bank_conflicts"), "count");
    m.add("pe.wave_throttled", st.at("pe.wave_throttled"), "count");
    m.add("pe.match_misses", st.at("match.misses"), "count");
    m.add("pe.istore_misses", st.at("istore.misses"), "count");
    m.add("memory.sb_requests", st.at("sb.requests"), "count");
    m.add("memory.l1_misses", st.at("l1.misses"), "count");
    m.add("memory.l2_misses", st.at("home.l2_misses"), "count");
    m.add("network.traffic_total", st.at("traffic.total"), "count");
    m.add("network.inter_cluster",
          st.at("traffic.inter_cluster.operand") +
              st.at("traffic.inter_cluster.memory"),
          "count");
    m.add("network.congestion_events", st.at("traffic.congestion_events"),
          "count");

    m.add("sim_io.encode_s", passSum("sim_io.encode"), "s");
    m.add("json.dump_s", passSum("json.dump"), "s");
    m.add("json.parse_s", passSum("json.parse"), "s");
    m.add("sim_io.decode_s", passSum("sim_io.decode"), "s");
    m.add("sim_io.record_bytes", first.recordBytes, "bytes");

    const ws::SimCacheStats &cs = first.cache;
    m.add("store.open_s", spanSum(setupSpans, "store.open"), "s");
    m.add("store.insert_s", passSum("store.insert"), "s");
    m.add("store.lookup_s", passSum("store.lookup"), "s");
    m.add("store.lookup_us.p50", percentile(lookupUs, 50), "us");
    m.add("store.lookup_us.p99", percentile(lookupUs, 99), "us");
    m.add("store.disk_hits", static_cast<double>(cs.diskHits), "count");
    m.add("store.misses", static_cast<double>(cs.misses), "count");
    m.add("store.rejected", static_cast<double>(cs.diskRejected), "count");
    m.add("store.writes", static_cast<double>(cs.diskWrites), "count");
    m.add("store.write_errors", static_cast<double>(cs.diskWriteErrors),
          "count");
    m.add("store.hit_frac", static_cast<double>(cs.diskHits) / n, "ratio");

    const bool replay = args.workload == Workload::kStoreReplay;
    const double lanes = replay ? 1.0 : static_cast<double>(args.workers);
    m.add("driver.run_s",
          perPass(traced, [](const Pass &p) { return p.wall; }), "s");
    m.add("driver.worker_busy_frac", perPass(traced, [&](const Pass &p) {
              return spanSum(p.spans, "point") / (lanes * p.wall);
          }),
          "ratio");
    m.add("driver.tail_s", perPass(traced, [](const Pass &p) {
              // From the first worker running out of points to the end
              // of the batch.
              std::map<int, std::int64_t> lastEnd;
              for (const Span &s : p.spans) {
                  if (std::strcmp(s.name, "point") == 0)
                      lastEnd[s.worker] = std::max(lastEnd[s.worker], s.endNs);
              }
              std::int64_t idle = p.endNs;
              for (const auto &[w, end] : lastEnd)
                  idle = std::min(idle, end);
              return (p.endNs - idle) * 1e-9;
          }),
          "s");
    double simulated = 0;
    for (char c : first.simulated)
        simulated += c;
    m.add("driver.simulated", simulated, "count");

    const double tracedWall =
        perPass(traced, [](const Pass &p) { return p.wall; });
    m.add("trace.overhead_frac",
          untracedWalls.empty() ? 0.0 : tracedWall / median(untracedWalls),
          "ratio");
    m.add("trace.coverage", pointSum == 0.0 ? 0.0 : childSum / pointSum,
          "ratio");
}

/** Mean size of the pass's store records (read after the pass). */
double
meanRecordBytes(const ws::SimCache &cache, const std::vector<ws::SimJob> &jobs)
{
    double total = 0.0;
    for (const ws::SimJob &job : jobs) {
        std::error_code ec;
        const auto size = fs::file_size(cache.disk()->recordPath(jobKey(job)), ec);
        total += ec ? 0.0 : static_cast<double>(size);
    }
    return jobs.empty() ? 0.0 : total / static_cast<double>(jobs.size());
}

// ---------------------------------------------------------------------
// Modes.
// ---------------------------------------------------------------------

bool
loadChecks(const Args &args, Checks *checks)
{
    const std::string golden =
        args.goldenDir + "/seed-" + std::to_string(args.seed) + ".txt";
    if (!args.goldenDir.empty() && fs::exists(golden)) {
        if (!readDigestFile(golden, &checks->golden)) {
            std::fprintf(stderr, "wsbench: malformed golden file %s\n",
                         golden.c_str());
            return false;
        }
        checks->haveGolden = true;
    } else {
        std::fprintf(stderr,
                     "wsbench: no golden digests for seed %llu; results "
                     "are checked across passes only\n",
                     static_cast<unsigned long long>(args.seed));
    }
    if (args.workload == Workload::kStoreReplay && args.populate.empty() &&
        args.writeGolden.empty()) {
        checks->replay = true;
        if (!readDigestFile(args.store + "/manifest.txt", &checks->manifest)) {
            std::fprintf(stderr, "wsbench: cannot read %s/manifest.txt\n",
                         args.store.c_str());
            return false;
        }
    }
    return true;
}

/** --populate / --write-golden: one cold batch over every point. */
int
runOnce(const Args &args)
{
    Checks checks;
    if (!loadChecks(args, &checks))
        return 2;
    const Setup setup = buildSetup(args, nullptr);
    std::string store;
    if (!args.populate.empty()) {
        store = args.populate + "/store";
        fs::remove_all(store);
    }
    auto engine = openEngine(store, args.workers);
    Pass pass = enginePass(*engine, setup.jobs);
    engine.reset();
    checkPass(setup.points, checks, pass);

    std::vector<std::uint64_t> digests;
    for (const ws::SimResult &r : pass.results)
        digests.push_back(args.populate.empty() ? resultDigest(r)
                                                : fullDigest(r));
    const std::string out = args.populate.empty()
                                ? args.writeGolden
                                : args.populate + "/manifest.txt";
    if (!writeDigestFile(out, setup.points, digests)) {
        std::fprintf(stderr, "wsbench: cannot write %s\n", out.c_str());
        return 2;
    }
    std::fprintf(stderr, "wsbench: %zu points in %.2f s -> %s (%zu failed)\n",
                 setup.points.size(), pass.wall, out.c_str(), pass.failures);
    return pass.failures == 0 ? 0 : 1;
}

/** Removes the run's work directory however main() exits. */
struct WorkDir
{
    std::string path;
    ~WorkDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

int
runBenchmark(const Args &args)
{
    Checks checks;
    if (!loadChecks(args, &checks))
        return 2;
    const bool replay = args.workload == Workload::kStoreReplay;
    WorkDir work{args.workDir + "/" + args.workloadName + "-" +
                 std::to_string(::getpid())};
    fs::create_directories(work.path);
    PassStores stores(work.path, replay ? args.store + "/store" : "");

    // Set-up, repeated (untraced) so its median is steady; each rep
    // builds everything afresh and opens the first pass's engine. A
    // host-speed probe follows each rep and each round of passes; the
    // run's median probe normalizes both metrics.
    std::string store = stores.next(false);
    SpanRecorder rec;
    std::vector<Span> setupSpans;
    std::vector<double> setupTimes;
    Setup setup;
    std::unique_ptr<ws::SweepEngine> engine;
    std::unique_ptr<ws::SimCache> tracedCache;
    std::vector<double> probes;
    if (args.trace) {
        setup = buildSetup(args, &rec);
        tracedCache = std::make_unique<ws::SimCache>();
        rec.time("store.open", 0, -1,
                 [&](Span &) { tracedCache->attachDisk(store); });
        setupSpans = rec.take();
    } else {
        probes.push_back(hostWorkSeconds(args.workers));
        double spent = 0.0;
        for (int rep = 0; rep < 25 && (rep < 9 || spent < 1.5); ++rep) {
            engine.reset();
            setup = Setup{};
            const auto t0 = Clock::now();
            setup = buildSetup(args, nullptr);
            engine = openEngine(store, args.workers);
            setupTimes.push_back(secondsSince(t0));
            spent += setupTimes.back();
            probes.push_back(hostWorkSeconds(args.workers));
        }
    }
    const std::size_t n = setup.points.size();

    bool firstPass = true;
    bool storeWritten = false;
    auto runPass = [&](bool traced) {
        if (!firstPass) {
            store = stores.next(replay && !storeWritten);
            if (traced) {
                tracedCache = std::make_unique<ws::SimCache>();
                tracedCache->attachDisk(store);
            } else {
                engine = openEngine(store, args.workers);
            }
        }
        Pass pass = traced
                        ? tracedPass(rec, *tracedCache, setup.jobs, replay,
                                     args.workers)
                        : enginePass(*engine, setup.jobs);
        if (traced) {
            pass.recordBytes = meanRecordBytes(*tracedCache, setup.jobs);
            pass.sim = simTotals(pass.results, pass.simulated);
            tracedCache.reset();
        } else {
            engine.reset();
        }
        checkPass(setup.points, checks, pass);
        pass.results = {};
        firstPass = false;
        storeWritten = pass.cache.diskWrites != 0;
        return pass;
    };

    // Timed passes until --seconds have been measured. Untraced runs
    // time rounds of passes (at least a second of them, so the short
    // store-replay passes are timed together). Traced runs alternate
    // traced and untraced passes, traced first.
    std::vector<Pass> passes;
    std::vector<double> rates;
    const auto timed0 = Clock::now();
    while (passes.empty() || secondsSince(timed0) < args.seconds ||
           (args.trace && passes.size() < 2)) {
        if (args.trace) {
            passes.push_back(runPass(passes.size() % 2 == 0));
            continue;
        }
        double roundWall = 0.0;
        std::size_t roundPoints = 0;
        while (roundPoints == 0 || roundWall < 1.0) {
            passes.push_back(runPass(false));
            roundWall += passes.back().wall;
            roundPoints += n;
        }
        rates.push_back(static_cast<double>(roundPoints) / roundWall);
        probes.push_back(hostWorkSeconds(args.workers));
    }

    std::size_t attempted = 0;
    std::size_t failed = 0;
    for (const Pass &p : passes) {
        attempted += n;
        failed += p.failures;
    }

    Metrics m;
    if (args.trace) {
        layerMetrics(args, setup, setupSpans, passes, m);
        std::vector<Span> trace = setupSpans;
        for (const Pass &p : passes) {
            if (p.traced) {
                trace.insert(trace.end(), p.spans.begin(), p.spans.end());
                break;
            }
        }
        if (!args.traceOut.empty() &&
            !writeChromeTrace(args.traceOut, trace,
                              args.workloadName + " seed " +
                                  std::to_string(args.seed))) {
            std::fprintf(stderr, "wsbench: cannot write %s\n",
                         args.traceOut.c_str());
            return 2;
        }
    } else {
        const double slowdown = hostSlowdown(probes);
        m.add("points_per_s", median(rates) * slowdown, "1/s");
        m.add("setup_s", median(setupTimes) / slowdown, "s");
        m.add("peak_rss_mb", peakRssMb(), "MB");
        std::fprintf(stderr,
                     "wsbench: %zu rounds, %zu probes; host-time figures: "
                     "points_per_s %.4g, setup_s %.4g; host slowdown "
                     "%.3f\n",
                     rates.size(), probes.size(), median(rates),
                     median(setupTimes), slowdown);
    }
    const double failFrac =
        static_cast<double>(failed) / static_cast<double>(attempted);
    const bool correct = failed == 0 && !m.nonFinite();

    std::printf("workload %s, seed %llu, %zu points x %zu passes, "
                "%u workers, golden %s\n",
                args.workloadName.c_str(),
                static_cast<unsigned long long>(args.seed), n, passes.size(),
                args.workers, checks.haveGolden ? "checked" : "absent");
    m.print();
    std::printf("%-28s %16.6g %s\n", "fail_frac", failFrac, "ratio");

    ws::Json out = ws::Json::object();
    out["correct"] = correct;
    out["attempted"] = static_cast<std::uint64_t>(attempted);
    out["failed"] = static_cast<std::uint64_t>(failed);
    out["metrics"] = m.take();
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace wsbench

int
main(int argc, char **argv)
{
    const wsbench::Args args = wsbench::parseArgs(argc, argv);
    ws::setQuiet(true);
    try {
        if (!args.populate.empty() || !args.writeGolden.empty())
            return wsbench::runOnce(args);
        return wsbench::runBenchmark(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wsbench: %s\n", e.what());
        return 2;
    }
}
