// Live telemetry exporter: a background thread that serializes metric
// snapshots on an interval, in two formats —
//  * Prometheus text exposition format (the scrape surface a future
//    HTTP front-end mounts; grammar documented at
//    https://prometheus.io/docs/instrumenting/exposition_formats/), and
//  * JSON: the cumulative MetricsSnapshot plus per-interval sketch
//    deltas (the distribution of just the last interval, via
//    SketchSnapshot::DeltaSince) and any registered scrape sections.
//
// Activation:
//  * HAP_PROM=<path> — every interval, write Prometheus text to <path>
//    and JSON to <path>.json (atomic tmp+rename, so a concurrent reader
//    never sees a torn file). A final scrape runs at process exit.
//  * HAP_PROM=<port> (all digits) — serve the Prometheus text over a
//    minimal blocking HTTP listener on 127.0.0.1:<port>; `GET /metrics`
//    (any path, actually) returns the current render. JSON is at
//    `GET /json`. A client gets 1 s to send its request before it is
//    hung up on, so a silent connection cannot stall the listener.
//  * Programmatic: construct a TelemetryExporter directly.
// HAP_PROM implies SetMetricsEnabled(true) — an exporter with timing
// histograms and sketches empty would be useless.
// HAP_PROM_INTERVAL_MS overrides the 1000ms default scrape interval.
//
// Mapping to Prometheus text format: metric names are sanitized
// (dots → underscores, `hap_` prefix), counters emit `# TYPE ... counter`,
// gauges `gauge`, and both Histogram and Sketch snapshots emit
// `histogram` families with cumulative `_bucket{le="..."}` lines (one
// per occupied bucket, upper bound = the bucket's exclusive high edge),
// a `+Inf` bucket, `_sum`, and `_count`.
#ifndef HAP_OBS_EXPORTER_H_
#define HAP_OBS_EXPORTER_H_

#include <functional>
#include <string>

#include "obs/metrics.h"

namespace hap::obs {

/// Adds (or replaces) a named scrape section: `provider` is called at
/// every scrape and must return a self-contained JSON value, embedded in
/// the exporter's JSON output under "sections":{"<key>":<value>}.
/// Higher layers use this to ship data the metrics registry does not
/// model (e.g. the serve stack's slow-request exemplars) without obs
/// depending on them. Providers must be thread-safe; they run on the
/// exporter thread.
void RegisterScrapeSection(const std::string& key,
                           std::function<std::string()> provider);

/// Renders `snap` in Prometheus text exposition format (see header
/// comment for the mapping). Pure function — tests feed it synthetic
/// snapshots and grammar-check the result.
std::string RenderPrometheus(const MetricsSnapshot& snap);

/// Renders the exporter's JSON document: {"cumulative":<snap JSON>,
/// "interval_sketches":[...deltas vs `prev`...],"sections":{...}}.
/// `prev` may be an empty snapshot (first scrape: interval == cumulative).
std::string RenderExporterJson(const MetricsSnapshot& snap,
                               const MetricsSnapshot& prev);

class TelemetryExporter {
 public:
  struct Options {
    std::string path;       // file mode when non-empty
    int port = -1;          // HTTP mode when >= 0 (wins over path)
    int interval_ms = 1000; // file-mode scrape cadence
  };

  /// Starts the background thread. File mode scrapes every interval_ms;
  /// HTTP mode scrapes on demand per request.
  explicit TelemetryExporter(const Options& options);
  ~TelemetryExporter();

  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  /// Renders and (in file mode) writes one scrape immediately; callable
  /// from any thread. Returns false if a file write failed.
  bool ScrapeOnce();

  /// Joins the background thread after a final scrape. Idempotent.
  void Stop();

  /// HTTP mode: the port actually bound (== Options::port, or the
  /// kernel-assigned port when Options::port was 0); -1 in file mode or
  /// if binding failed.
  int bound_port() const { return bound_port_; }

 private:
  struct Impl;
  Impl* impl_;
  int bound_port_ = -1;
};

}  // namespace hap::obs

#endif  // HAP_OBS_EXPORTER_H_
