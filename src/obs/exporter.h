/**
 * @file
 * Live-introspection endpoint: a dependency-free embedded HTTP server
 * exposing the process's observability surface to a scraper.
 *
 * Endpoints:
 *  - /metrics        Prometheus text exposition (format 0.0.4)
 *                    rendered from a MetricsSnapshot: each counter
 *                    under "# TYPE <family> counter" (a registry
 *                    reset reads as a counter reset to rate()), each
 *                    gauge under "# TYPE <family> gauge", every
 *                    histogram as cumulative
 *                    _bucket{le=...}/_sum/_count series plus a
 *                    <name>_quantile{quantile=...} gauge family for
 *                    the histogram's configured quantile set (value
 *                    "+Inf" when the quantile falls in the overflow
 *                    bucket — the estimate is only a lower bound).
 *  - /snapshot.json  MetricsSnapshot::toJson()
 *  - /tenants.json   SloTracker::toJson() (per-tenant attainment and
 *                    burn rate; "{}" when no tracker is wired)
 *  - /events.json    FlightRecorder::dumpJson()
 *  - /calibration.json  ScheduleCalibration::toJson() — per-op-kind
 *                    predicted-vs-measured schedule fit
 *  - /tracez?ms=N    SpanLog::captureJson(N): arms the span log,
 *                    samples the events recorded in N ms (default 50,
 *                    clamped 1..2000), and returns them as Chrome
 *                    trace JSON with the window's "dropped" count.
 *                    Blocks the (serial) server for the window — a
 *                    live-debugging request, not a scrape.
 *  - /healthz        200 "ok"
 *
 * Name mapping (Prometheus names admit [a-zA-Z0-9_:] only):
 *  - "slo.<tenant>.<leaf>"  -> f1_slo_<leaf>{tenant="<tenant>"}
 *  - "cache.<name>.<leaf>"  -> f1_cache_<leaf>{cache="<name>"}
 *  - "calib.<op>.<leaf>"    -> f1_calib_<leaf>{op="<op>"}
 *  - anything else          -> "f1_" + name with [^a-zA-Z0-9_] -> '_'
 * so per-tenant and per-cache series aggregate under one family with
 * a label instead of exploding the metric namespace. Label values are
 * escaped per the exposition format (backslash, quote, newline).
 *
 * The server is deliberately minimal: one background thread, serial
 * request handling, GET only, connection-close per request — the load
 * profile of a scraper, not a proxy. It binds 127.0.0.1 by default
 * and never touches the serving hot path (every request renders from
 * a cold-path snapshot). Port 0 binds an ephemeral port; read it back
 * with port().
 */
#ifndef F1_OBS_EXPORTER_H
#define F1_OBS_EXPORTER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>

#include "obs/calib.h"
#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace f1::obs {

/** Prometheus text exposition of `snap` (see header comment for the
 *  name/label mapping). Pure function; the testable core. */
std::string renderPrometheus(const MetricsSnapshot &snap);

/** [^a-zA-Z0-9_:] -> '_' (leading digit gets a '_' prefix). */
std::string sanitizeMetricName(std::string_view raw);

/** Exposition-format label-value escaping (\\, \", \n). */
std::string escapeLabelValue(std::string_view raw);

struct ExporterConfig
{
    std::string bindAddress = "127.0.0.1";
    uint16_t port = 0; //!< 0 = ephemeral; read back via port()

    /** Snapshot source; defaults to the global registry. */
    std::function<MetricsSnapshot()> snapshot;

    /** /tenants.json source (not owned; must outlive the exporter).
     *  nullptr serves "{}". */
    const SloTracker *slo = nullptr;

    /** /events.json source; defaults to FlightRecorder::global(). */
    const FlightRecorder *events = nullptr;

    /** /calibration.json source; defaults to
     *  ScheduleCalibration::global(). */
    const ScheduleCalibration *calib = nullptr;
};

class MetricsExporter
{
  public:
    /** Binds and starts serving immediately; throws FatalError when
     *  the socket cannot be bound. */
    explicit MetricsExporter(ExporterConfig cfg = {});
    ~MetricsExporter();
    MetricsExporter(const MetricsExporter &) = delete;
    MetricsExporter &operator=(const MetricsExporter &) = delete;

    /** The bound port (resolved when cfg.port was 0). */
    uint16_t port() const { return port_; }

    /** Stops accepting and joins the server thread (idempotent). */
    void stop();

    struct Response
    {
        int status = 200;
        std::string contentType = "text/plain; charset=utf-8";
        std::string body;
    };

    /** Routes one request path (optionally carrying a "?key=value"
     *  query, e.g. "/tracez?ms=20") to its response — the socket-free
     *  core, used directly by tests. */
    Response handle(std::string_view path) const;

  private:
    void serveLoop();
    void serveOne(int fd);

    ExporterConfig cfg_;
    std::atomic<int> listenFd_{-1};
    uint16_t port_ = 0;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/** Minimal blocking HTTP/1.1 GET against 127.0.0.1:`port` — the
 *  self-scrape used by benches, tests, and CI smoke checks. Returns
 *  the status code (0 on connect/transport failure) and fills `body`
 *  with the response payload when non-null. */
int httpGet(uint16_t port, std::string_view path,
            std::string *body = nullptr);

} // namespace f1::obs

#endif // F1_OBS_EXPORTER_H
