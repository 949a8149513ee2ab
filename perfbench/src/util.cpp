#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include <sys/resource.h>

#include "common/time_util.h"

namespace f1::perfbench {

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const double n = static_cast<double>(xs.size());
    size_t rank = static_cast<size_t>(std::ceil(q * n));
    rank = std::clamp<size_t>(rank, 1, xs.size());
    return xs[rank - 1];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

namespace {

uint64_t
threadTag()
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
           100000;
}

std::string
layerOf(const std::string &name)
{
    const size_t dot = name.rfind('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

} // namespace

uint64_t
SpanRecorder::reserve()
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(m_);
    return nextId_++;
}

void
SpanRecorder::addWithId(uint64_t id, std::string name, double startMs,
                        double endMs, uint64_t parent, uint64_t request)
{
    if (!enabled_)
        return;
    Span s{std::move(name), startMs, endMs, id, parent, request,
           threadTag()};
    std::lock_guard<std::mutex> lock(m_);
    spans_.push_back(std::move(s));
}

uint64_t
SpanRecorder::add(std::string name, double startMs, double endMs,
                  uint64_t parent, uint64_t request)
{
    const uint64_t id = reserve();
    addWithId(id, std::move(name), startMs, endMs, parent, request);
    return id;
}

size_t
SpanRecorder::size() const
{
    std::lock_guard<std::mutex> lock(m_);
    return spans_.size();
}

SpanRecorder::Scope::Scope(SpanRecorder &rec, std::string name,
                           uint64_t parent)
    : rec_(rec), name_(std::move(name)), parent_(parent)
{
    if (rec_.enabled()) {
        id_ = rec_.reserve();
        startMs_ = steadyNowMs();
    }
}

SpanRecorder::Scope::~Scope()
{
    if (rec_.enabled())
        rec_.addWithId(id_, std::move(name_), startMs_, steadyNowMs(),
                       parent_);
}

std::map<std::string, double>
SpanRecorder::selfTimeByLayer() const
{
    std::lock_guard<std::mutex> lock(m_);
    std::map<uint64_t, std::vector<std::pair<double, double>>> children;
    for (const Span &s : spans_)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.startMs, s.endMs);
    std::map<std::string, double> self;
    for (const Span &s : spans_) {
        double covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            double lo = s.startMs, hi = s.startMs;
            for (auto [a, b] : iv) {
                a = std::clamp(a, s.startMs, s.endMs);
                b = std::clamp(b, s.startMs, s.endMs);
                if (a > hi) {
                    covered += hi - lo;
                    lo = a;
                    hi = b;
                } else {
                    hi = std::max(hi, b);
                }
            }
            covered += hi - lo;
        }
        self[layerOf(s.name)] += (s.endMs - s.startMs) - covered;
    }
    return self;
}

bool
SpanRecorder::writePerfetto(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::lock_guard<std::mutex> lock(m_);
    double origin = 0;
    for (const Span &s : spans_)
        origin = origin == 0 ? s.startMs : std::min(origin, s.startMs);
    // Async slices nest by begin/end order, so each request tree is
    // emitted parent-first at begin and child-first at end.
    std::vector<const Span *> order;
    for (const Span &s : spans_)
        order.push_back(&s);
    std::sort(order.begin(), order.end(),
              [](const Span *a, const Span *b) {
                  return a->startMs != b->startMs
                             ? a->startMs < b->startMs
                             : a->endMs > b->endMs;
              });
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    bool first = true;
    auto emit = [&](const Span &s, const char *ph, double tsMs) {
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\","
                     "\"ts\":%.3f,\"pid\":1,\"tid\":%llu",
                     first ? "" : ",", s.name.c_str(),
                     layerOf(s.name).c_str(), ph,
                     (tsMs - origin) * 1000.0,
                     static_cast<unsigned long long>(s.tid));
        first = false;
        if (ph[0] == 'X')
            std::fprintf(f, ",\"dur\":%.3f",
                         (s.endMs - s.startMs) * 1000.0);
        if (s.request != 0)
            std::fprintf(f, ",\"id\":\"0x%llx\"",
                         static_cast<unsigned long long>(s.request));
        std::fprintf(f,
                     ",\"args\":{\"span\":%llu,\"parent\":%llu,"
                     "\"request\":\"0x%llx\"}}",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
    };
    struct Edge
    {
        double ts;
        bool begin;
        double len;
        const Span *s;
    };
    std::vector<Edge> edges;
    for (const Span *s : order) {
        if (s->request == 0) {
            emit(*s, "X", s->startMs);
        } else {
            const double len = s->endMs - s->startMs;
            edges.push_back({s->startMs, true, len, s});
            edges.push_back({s->endMs, false, len, s});
        }
    }
    // At equal timestamps: ends before begins, shorter spans end
    // first and longer spans begin first, so slices stay nested.
    std::stable_sort(edges.begin(), edges.end(),
                     [](const Edge &a, const Edge &b) {
                         if (a.ts != b.ts)
                             return a.ts < b.ts;
                         if (a.begin != b.begin)
                             return !a.begin;
                         return a.begin ? a.len > b.len : a.len < b.len;
                     });
    for (const Edge &e : edges)
        emit(*e.s, e.begin ? "b" : "e", e.ts);
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace f1::perfbench
