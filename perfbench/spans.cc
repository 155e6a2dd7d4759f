#include "spans.h"

#include <fstream>
#include <set>

#include "common/json.h"

namespace wsbench {

int
workerIndex()
{
    static std::atomic<int> next{0};
    thread_local const int id = next++;
    return id;
}

void
SpanRecorder::add(std::vector<Span> spans)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Span &s : spans)
        spans_.push_back(std::move(s));
}

std::vector<Span>
SpanRecorder::take()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    out.swap(spans_);
    return out;
}

bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                 const std::string &label)
{
    ws::Json events = ws::Json::array();
    std::set<int> workers;
    for (const Span &s : spans) {
        ws::Json e = ws::Json::object();
        e["name"] = s.name;
        e["cat"] = s.point < 0 ? "setup" : "point";
        e["ph"] = "X";
        e["ts"] = s.startNs * 1e-3;
        e["dur"] = (s.endNs - s.startNs) * 1e-3;
        e["pid"] = 1;
        e["tid"] = s.worker;
        ws::Json args = ws::Json::object();
        args["span"] = s.id;
        args["parent"] = s.parent;
        if (s.point >= 0)
            args["point"] = s.point;
        if (s.count != 0)
            args["count"] = static_cast<std::uint64_t>(s.count);
        if (!s.detail.empty())
            args["detail"] = s.detail;
        e["args"] = std::move(args);
        events.push(std::move(e));
        workers.insert(s.worker);
    }
    for (int w : workers) {
        ws::Json meta = ws::Json::object();
        meta["name"] = "thread_name";
        meta["ph"] = "M";
        meta["pid"] = 1;
        meta["tid"] = w;
        ws::Json args = ws::Json::object();
        args["name"] = "worker " + std::to_string(w);
        meta["args"] = std::move(args);
        events.push(std::move(meta));
    }
    ws::Json root = ws::Json::object();
    root["traceEvents"] = std::move(events);
    root["displayTimeUnit"] = "ms";
    ws::Json other = ws::Json::object();
    other["benchmark"] = label;
    root["otherData"] = std::move(other);

    std::ofstream out(path);
    out << root.dump() << '\n';
    return static_cast<bool>(out);
}

} // namespace wsbench
