#include "obs/eventlog.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/time_util.h"
#include "obs/json.h"

namespace f1::obs {

const char *
servingEventKindName(ServingEventKind kind)
{
    switch (kind) {
      case ServingEventKind::kSubmit: return "submit";
      case ServingEventKind::kAdmit: return "admit";
      case ServingEventKind::kShed: return "shed";
      case ServingEventKind::kCoalesce: return "coalesce";
      case ServingEventKind::kDispatch: return "dispatch";
      case ServingEventKind::kComplete: return "complete";
      case ServingEventKind::kFail: return "fail";
    }
    return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : ring_(capacity),
      dropped_(MetricsRegistry::global().counter("eventlog.dropped"))
{
}

FlightRecorder &
FlightRecorder::global()
{
    // Leaked for the same reason as MetricsRegistry::global():
    // executors record during static teardown of arbitrary objects.
    static FlightRecorder *rec = new FlightRecorder;
    return *rec;
}

void
FlightRecorder::record(ServingEventKind kind, uint64_t jobId,
                       std::string_view tenant, uint64_t fingerprint,
                       uint32_t batchSize, uint64_t traceId)
{
    decltype(ring_)::Payload w{};
    w[0] = jobId;
    w[1] = fingerprint;
    w[2] = std::bit_cast<uint64_t>(steadyNowMs());
    const size_t len = std::min(tenant.size(), kTenantBytes);
    w[3] = uint64_t(uint8_t(kind)) | (uint64_t(batchSize) << 8) |
           (uint64_t(len) << 40);
    w[4] = traceId;
    for (size_t i = 0; i < len; ++i)
        w[5 + i / 8] |= uint64_t(uint8_t(tenant[i])) << (8 * (i % 8));
    if (ring_.push(w) > ring_.capacity())
        dropped_.inc(); // overwrote the oldest event
}

std::vector<ServingEvent>
FlightRecorder::dump() const
{
    std::vector<ServingEvent> out;
    out.reserve(std::min<uint64_t>(recorded(), capacity()));
    const uint64_t torn =
        ring_.read(0, recorded(), [&](uint64_t seq, const auto &w) {
            ServingEvent ev;
            ev.seq = seq;
            ev.jobId = w[0];
            ev.fingerprint = w[1];
            ev.tsMs = std::bit_cast<double>(w[2]);
            ev.kind = ServingEventKind(uint8_t(w[3]));
            ev.batchSize = uint32_t(w[3] >> 8);
            ev.traceId = w[4];
            ev.tenant.resize(
                std::min<size_t>((w[3] >> 40) & 0xff, kTenantBytes));
            for (size_t i = 0; i < ev.tenant.size(); ++i)
                ev.tenant[i] = char(uint8_t(w[5 + i / 8] >> (8 * (i % 8))));
            out.push_back(std::move(ev));
        });
    dropped_.inc(torn);
    return out;
}

std::string
FlightRecorder::dumpJson() const
{
    const std::vector<ServingEvent> events = dump();
    const uint64_t total = recorded();
    const uint64_t dropped =
        total > events.size() ? total - events.size() : 0;
    std::ostringstream os;
    os << "{\"capacity\": " << capacity() << ", \"recorded\": " << total
       << ", \"dropped\": " << dropped << ", \"events\": [";
    bool first = true;
    char buf[32];
    for (const ServingEvent &ev : events) {
        if (!first)
            os << ", ";
        first = false;
        os << "{\"seq\": " << ev.seq << ", \"ts_ms\": ";
        std::snprintf(buf, sizeof buf, "%.3f", ev.tsMs);
        os << buf << ", \"kind\": ";
        appendJsonString(os, servingEventKindName(ev.kind));
        os << ", \"job_id\": " << ev.jobId << ", \"tenant\": ";
        appendJsonString(os, ev.tenant);
        // Fingerprints are full 64-bit hashes; hex-string them so
        // JSON consumers that parse numbers as doubles keep the bits.
        os << ", \"fingerprint\": \"" << hexId(ev.fingerprint)
           << "\", \"trace_id\": \"" << hexId(ev.traceId)
           << "\", \"batch_size\": " << ev.batchSize << "}";
    }
    os << "]}";
    return os.str();
}

bool
FlightRecorder::dumpToFile(const std::string &path) const
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        return false;
    f << dumpJson() << "\n";
    return f.good();
}

} // namespace f1::obs
