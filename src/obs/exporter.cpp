#include "obs/exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include "common/error.h"

namespace f1::obs {

namespace {

void
appendDouble(std::ostringstream &os, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    os << buf;
}

/** Registry name -> exposition family + optional label pair. */
struct FamilyName
{
    std::string family;
    std::string labels; //!< `key="value"` or empty
};

FamilyName
mapName(const std::string &raw)
{
    // Per-instance namespaces become labels on one family: the
    // registry writes "slo.<tenant>.<leaf>" / "cache.<name>.<leaf>",
    // and a scraper wants sum by (tenant) over one series name, not a
    // metric name per tenant. The middle segment may itself contain
    // dots (tenant ids are arbitrary), so split on the FIRST and LAST
    // dot of the remainder.
    for (const auto &[prefix, label] :
         {std::pair<const char *, const char *>{"slo.", "tenant"},
          {"cache.", "cache"},
          {"calib.", "op"}}) {
        const size_t plen = std::strlen(prefix);
        if (raw.compare(0, plen, prefix) != 0)
            continue;
        const std::string rest = raw.substr(plen);
        const size_t dot = rest.rfind('.');
        if (dot == std::string::npos || dot == 0)
            break; // malformed; fall through to plain mapping
        FamilyName fn;
        fn.family = "f1_" + sanitizeMetricName(prefix) +
                    sanitizeMetricName(rest.substr(dot + 1));
        fn.labels = std::string(label) + "=\"" +
                    escapeLabelValue(rest.substr(0, dot)) + "\"";
        return fn;
    }
    return {"f1_" + sanitizeMetricName(raw), ""};
}

std::string
withLabels(const std::string &family, const std::string &labels,
           const std::string &extra = {})
{
    std::string out = family;
    if (labels.empty() && extra.empty())
        return out;
    out += '{';
    out += labels;
    if (!labels.empty() && !extra.empty())
        out += ',';
    out += extra;
    out += '}';
    return out;
}

struct Family
{
    const char *type = "gauge";
    std::vector<std::string> lines;
};

} // namespace

std::string
sanitizeMetricName(std::string_view raw)
{
    std::string out;
    out.reserve(raw.size() + 1);
    if (!raw.empty() && std::isdigit(static_cast<unsigned char>(raw[0])))
        out += '_';
    for (char c : raw) {
        const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

std::string
escapeLabelValue(std::string_view raw)
{
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
renderPrometheus(const MetricsSnapshot &snap)
{
    // Group samples by family first: the exposition format requires
    // one # TYPE line per family preceding ALL its samples, and
    // labeled instances of one family (slo.<a>.x, slo.<b>.x) arrive
    // interleaved with other names in the sorted registry maps.
    std::map<std::string, Family> families;

    // Counters are monotonic between registry resets, so a scraper's
    // rate() reads a reset as a counter reset; gauges go up and down.
    for (const auto &[scalars, type] :
         {std::pair{&snap.counters, "counter"},
          std::pair{&snap.gauges, "gauge"}}) {
        for (const auto &[name, value] : *scalars) {
            const FamilyName fn = mapName(name);
            Family &fam = families[fn.family];
            fam.type = type;
            std::ostringstream line;
            line << withLabels(fn.family, fn.labels) << ' ' << value;
            fam.lines.push_back(line.str());
        }
    }

    for (const auto &[name, h] : snap.histograms) {
        const FamilyName fn = mapName(name);
        Family &fam = families[fn.family];
        fam.type = "histogram";
        uint64_t cum = 0;
        for (size_t i = 0; i < h.bounds.size(); ++i) {
            cum += i < h.counts.size() ? h.counts[i] : 0;
            std::ostringstream line;
            line << withLabels(fn.family + "_bucket", fn.labels,
                               [&] {
                                   std::ostringstream le;
                                   le << "le=\"";
                                   appendDouble(le, h.bounds[i]);
                                   le << '"';
                                   return le.str();
                               }())
                 << ' ' << cum;
            fam.lines.push_back(line.str());
        }
        {
            std::ostringstream line;
            line << withLabels(fn.family + "_bucket", fn.labels,
                               "le=\"+Inf\"")
                 << ' ' << h.count;
            fam.lines.push_back(line.str());
        }
        {
            std::ostringstream line;
            line << withLabels(fn.family + "_sum", fn.labels) << ' ';
            appendDouble(line, h.sum);
            fam.lines.push_back(line.str());
        }
        {
            std::ostringstream line;
            line << withLabels(fn.family + "_count", fn.labels) << ' '
                 << h.count;
            fam.lines.push_back(line.str());
        }

        // Quantile estimates live in their own gauge family (a
        // Prometheus histogram has no quantile samples). An estimate
        // that falls in the overflow bucket has no finite upper
        // bound; exposing the last edge would report a measured
        // latency that never happened, so the sample is "+Inf".
        Family &qfam = families[fn.family + "_quantile"];
        for (double q : h.quantiles) {
            const HistogramSnapshot::Quantile est = h.quantileAt(q);
            std::ostringstream line;
            std::ostringstream ql;
            ql << "quantile=\"";
            appendDouble(ql, q);
            ql << '"';
            line << withLabels(fn.family + "_quantile", fn.labels,
                               ql.str())
                 << ' ';
            if (est.overflow)
                line << "+Inf";
            else
                appendDouble(line, est.value);
            qfam.lines.push_back(line.str());
        }
    }

    std::ostringstream os;
    for (const auto &[name, fam] : families) {
        if (fam.lines.empty())
            continue;
        os << "# TYPE " << name << ' ' << fam.type << '\n';
        for (const std::string &line : fam.lines)
            os << line << '\n';
    }
    return os.str();
}

MetricsExporter::MetricsExporter(ExporterConfig cfg)
    : cfg_(std::move(cfg))
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    F1_REQUIRE(fd >= 0, "exporter: socket() failed");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg_.port);
    if (::inet_pton(AF_INET, cfg_.bindAddress.c_str(),
                    &addr.sin_addr) != 1) {
        ::close(fd);
        F1_REQUIRE(false, "exporter: bad bind address \""
                              << cfg_.bindAddress << "\"");
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(fd, 16) != 0) {
        ::close(fd);
        F1_REQUIRE(false, "exporter: cannot bind "
                              << cfg_.bindAddress << ":" << cfg_.port);
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof bound;
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &blen);
    port_ = ntohs(bound.sin_port);
    listenFd_.store(fd, std::memory_order_release);
    thread_ = std::thread([this] { serveLoop(); });
}

MetricsExporter::~MetricsExporter()
{
    stop();
}

void
MetricsExporter::stop()
{
    if (stop_.exchange(true))
        return;
    const int fd = listenFd_.exchange(-1);
    if (fd >= 0) {
        // Unblocks the accept() in serveLoop.
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
    if (thread_.joinable())
        thread_.join();
}

MetricsExporter::Response
MetricsExporter::handle(std::string_view path) const
{
    // Split off the query string; today only /tracez reads it, but
    // every route tolerates one (a scraper adding ?foo never 404s).
    std::string_view query;
    const size_t qpos = path.find('?');
    if (qpos != std::string_view::npos) {
        query = path.substr(qpos + 1);
        path = path.substr(0, qpos);
    }

    Response r;
    if (path == "/metrics") {
        const MetricsSnapshot snap =
            cfg_.snapshot ? cfg_.snapshot()
                          : MetricsRegistry::global().snapshot();
        r.contentType = "text/plain; version=0.0.4; charset=utf-8";
        r.body = renderPrometheus(snap);
    } else if (path == "/snapshot.json") {
        const MetricsSnapshot snap =
            cfg_.snapshot ? cfg_.snapshot()
                          : MetricsRegistry::global().snapshot();
        r.contentType = "application/json";
        r.body = snap.toJson();
    } else if (path == "/tenants.json") {
        r.contentType = "application/json";
        r.body = cfg_.slo != nullptr ? cfg_.slo->toJson() : "{}";
    } else if (path == "/events.json") {
        const FlightRecorder *rec = cfg_.events != nullptr
                                        ? cfg_.events
                                        : &FlightRecorder::global();
        r.contentType = "application/json";
        r.body = rec->dumpJson();
    } else if (path == "/calibration.json") {
        const ScheduleCalibration *calib =
            cfg_.calib != nullptr ? cfg_.calib
                                  : &ScheduleCalibration::global();
        r.contentType = "application/json";
        r.body = calib->toJson();
    } else if (path == "/tracez") {
        int64_t ms = 50;
        const size_t mpos = query.find("ms=");
        if (mpos != std::string_view::npos &&
            (mpos == 0 || query[mpos - 1] == '&')) {
            const long v =
                std::atol(std::string(query.substr(mpos + 3)).c_str());
            if (v > 0)
                ms = v;
        }
        // captureJson clamps to 1..2000ms and blocks for the window;
        // the serial server serves nothing else meanwhile (by design —
        // see the header's endpoint table).
        r.contentType = "application/json";
        r.body = SpanLog::global().captureJson(ms);
    } else if (path == "/healthz") {
        r.body = "ok\n";
    } else {
        r.status = 404;
        r.body = "not found\n";
    }
    return r;
}

void
MetricsExporter::serveOne(int fd)
{
    timeval tv{};
    tv.tv_sec = 2;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

    std::string req;
    char buf[2048];
    while (req.size() < 8192 &&
           req.find("\r\n\r\n") == std::string::npos) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            break;
        req.append(buf, size_t(n));
    }

    Response resp;
    if (req.compare(0, 4, "GET ") != 0) {
        resp.status = 405;
        resp.body = "method not allowed\n";
    } else {
        const size_t pathStart = 4;
        size_t pathEnd = req.find(' ', pathStart);
        if (pathEnd == std::string::npos)
            pathEnd = req.size();
        // The query string passes through: handle() splits it.
        resp = handle(std::string_view(req).substr(
            pathStart, pathEnd - pathStart));
    }

    const char *statusText = resp.status == 200   ? "OK"
                             : resp.status == 404 ? "Not Found"
                                                  : "Method Not Allowed";
    std::ostringstream os;
    os << "HTTP/1.1 " << resp.status << ' ' << statusText << "\r\n"
       << "Content-Type: " << resp.contentType << "\r\n"
       << "Content-Length: " << resp.body.size() << "\r\n"
       << "Connection: close\r\n\r\n"
       << resp.body;
    const std::string out = os.str();
    size_t sent = 0;
    while (sent < out.size()) {
        const ssize_t n = ::send(fd, out.data() + sent,
                                 out.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            break;
        sent += size_t(n);
    }
}

void
MetricsExporter::serveLoop()
{
    while (!stop_.load(std::memory_order_relaxed)) {
        const int lfd = listenFd_.load(std::memory_order_acquire);
        if (lfd < 0)
            return;
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) {
            if (stop_.load(std::memory_order_relaxed))
                return;
            continue;
        }
        serveOne(fd);
        ::close(fd);
    }
}

int
httpGet(uint16_t port, std::string_view path, std::string *body)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return 0;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return 0;
    }
    std::ostringstream req;
    req << "GET " << path << " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        << "Connection: close\r\n\r\n";
    const std::string out = req.str();
    size_t sent = 0;
    while (sent < out.size()) {
        const ssize_t n = ::send(fd, out.data() + sent,
                                 out.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            ::close(fd);
            return 0;
        }
        sent += size_t(n);
    }
    std::string resp;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            break;
        resp.append(buf, size_t(n));
    }
    ::close(fd);
    int status = 0;
    if (resp.compare(0, 5, "HTTP/") == 0) {
        const size_t sp = resp.find(' ');
        if (sp != std::string::npos)
            status = std::atoi(resp.c_str() + sp + 1);
    }
    if (body != nullptr) {
        const size_t hdrEnd = resp.find("\r\n\r\n");
        *body = hdrEnd == std::string::npos
                    ? std::string()
                    : resp.substr(hdrEnd + 4);
    }
    return status;
}

} // namespace f1::obs
