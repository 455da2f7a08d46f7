// serve_small_hot: the server is stood up in this process exactly as
// hap_served stands it up with its defaults, and the open-loop generator
// (loadgen.h) drives it over loopback TCP.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "loadgen.h"
#include "model_trace.h"
#include "obs/metric_names.h"
#include "serve/engine.h"
#include "serve/graph_cache.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/served_model.h"
#include "spans.h"
#include "stats.h"
#include "tensor/serialize.h"
#include "train/model_zoo.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace hap;
namespace names = hap::obs::names;

constexpr int kConnections = 4;
constexpr int kPoolThreads = 2;
constexpr int kCheckThreads = 4;  // output checks, between windows
constexpr int kHidden = 32;
constexpr int kSetupPerCpu = 12;
/// Load at the nominal rate on the measuring connections before any
/// window is measured: caches and arenas fill.
constexpr double kWarmupSeconds = 3.0;
/// A window measured the generator, not the server, when more than a
/// tenth of its requests went out later than this, or later than a
/// quarter of the window's median latency. Rarer or shorter stalls (the
/// host descheduling a vCPU) are charged to the requests they delay, as
/// latency from the scheduled send time always is.
constexpr double kMaxLatenessP90Ms = 2.0;

/// Nominal load. The untraced run measures it in one window: a settling
/// period, then --seconds cut into sub-windows of kSubWindow answers (at
/// most kMaxSubWindows of them).
constexpr double kNominalQps = 1000.0;
constexpr double kSettleSeconds = 3.0;
constexpr size_t kSubWindow = 1000;
constexpr size_t kMaxSubWindows = 30;
/// Capacity, in the traced run: kCapacityShare of --seconds in closed
/// loop with kCapacityWindow requests outstanding, in passes over a block
/// of kCapacityBlock requests (kMaxCapacityQps bounds the payloads
/// prepared per second).
constexpr double kCapacityShare = 0.25;
constexpr size_t kCapacityWindow = 128;
constexpr size_t kCapacityBlock = 1000;
constexpr double kMaxCapacityQps = 50000.0;
/// Graphs replayed through the parse, cache and model layers.
constexpr size_t kReplayGraphs = 64;
/// Untraced/traced window pairs behind trace.overhead_frac.
constexpr int kOverheadPairs = 3;

/// The request stream: MUTAG-like graphs drawn Zipf-skewed from a fixed
/// pool, as graph text per request plus the graph for the output check.
class Corpus {
 public:
  static constexpr int kPool = 300;
  static constexpr double kZipfS = 1.1;

  explicit Corpus(uint64_t seed) : rng_(seed) {
    dataset_ = MakeMutagLike(kPool, &rng_);
    for (const Graph& g : dataset_.graphs) {
      std::ostringstream text;
      WriteGraph(g, &text);
      texts_.push_back(text.str());
    }
    rank_to_graph_ = RandomPermutation(kPool, &rng_);
    double total = 0.0;
    for (int r = 0; r < kPool; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  const FeatureSpec& spec() const { return dataset_.feature_spec; }
  int num_classes() const { return dataset_.num_classes; }
  /// Appends `count` new requests; returns their indices.
  std::vector<size_t> Draw(size_t count) {
    std::vector<size_t> out;
    for (size_t i = 0; i < count; ++i) {
      const double u = rng_.Uniform();
      const int rank = static_cast<int>(
          std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      out.push_back(requests_.size());
      requests_.push_back(rank_to_graph_[std::min(rank, kPool - 1)]);
    }
    return out;
  }
  const std::string& Payload(size_t r) const { return texts_[requests_[r]]; }
  /// Key of the graph behind a request: equal keys, equal graphs.
  size_t GraphKey(size_t r) const { return static_cast<size_t>(requests_[r]); }
  const Graph& BuildGraph(size_t r) const { return dataset_.graphs[requests_[r]]; }

 private:
  Rng rng_;
  GraphDataset dataset_;
  std::vector<std::string> texts_;
  std::vector<int> rank_to_graph_;
  std::vector<double> cdf_;
  std::vector<int> requests_;  // request -> pool index
};

/// ModelRegistry + InferenceEngine + Server with hap_served's defaults.
struct Stack {
  serve::ModelRegistry registry;
  std::unique_ptr<serve::InferenceEngine> engine;
  std::unique_ptr<serve::Server> server;

  ~Stack() {
    if (server) server->Stop();
    if (engine) engine->Shutdown();
  }
};

serve::ServedModelConfig ModelConfig(const Corpus& corpus) {
  serve::ServedModelConfig config;
  config.method = "HAP";
  config.feature_dim = corpus.spec().FeatureDim();
  config.hidden = kHidden;
  config.num_classes = corpus.num_classes();
  config.lanes = serve::EngineConfig{}.max_batch;
  return config;
}

/// Builds and starts a stack; returns nullptr (and prints why) on failure.
std::unique_ptr<Stack> StartStack(const Corpus& corpus,
                                  const std::string& checkpoint,
                                  const std::string& access_log) {
  auto stack = std::make_unique<Stack>();
  Status loaded = stack->registry.Reload("model", 1, ModelConfig(corpus), checkpoint);
  if (!loaded.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", loaded.ToString().c_str());
    return nullptr;
  }
  serve::EngineConfig engine_config;
  engine_config.access_log_path = access_log;
  stack->engine = std::make_unique<serve::InferenceEngine>(
      &stack->registry, "model", engine_config);
  serve::ServerConfig server_config;
  server_config.cache_capacity = 256;
  stack->server = std::make_unique<serve::Server>(stack->engine.get(),
                                                  corpus.spec(), server_config);
  Status started = stack->server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", started.ToString().c_str());
    return nullptr;
  }
  return stack;
}

struct Window {
  std::vector<size_t> requests;
  LoadResult result;
};

/// Runs `count` new requests from `corpus` on `client` under `spec`, or,
/// with `block` > 0, `block` new requests repeated in the same order up
/// to `count`; a closed-loop window keeps only the requests it sent.
Window RunWindow(Corpus* corpus, WireClient* client, const LoadSpec& spec,
                 size_t count, size_t block = 0) {
  Window w;
  w.requests = corpus->Draw(std::max<size_t>(1, block > 0 ? block : count));
  for (size_t i = w.requests.size(); i < count; ++i) {
    w.requests.push_back(w.requests[i - block]);
  }
  std::vector<const std::string*> payloads;
  payloads.reserve(w.requests.size());
  for (size_t r : w.requests) payloads.push_back(&corpus->Payload(r));
  w.result = client->Run(payloads, spec);
  w.requests.resize(w.result.sent);
  return w;
}

LoadSpec Nominal() {
  LoadSpec spec;
  spec.rate = kNominalQps;
  spec.drain_s = 10.0;
  return spec;
}

size_t NominalCount(double seconds) {
  return static_cast<size_t>(kNominalQps * seconds);
}

bool GeneratorKeptUp(const LoadResult& r) {
  return r.LatenessQuantileMs(0.9) <=
         std::max(kMaxLatenessP90Ms, 0.25 * r.OkLatencyQuantileMs(0.5));
}

/// Checks every OK prediction of `w` against a direct ServedModel::Predict
/// on the same graph (the fp32 bit-determinism contract). References are
/// computed once per distinct graph, one thread per lane of `model`.
void CheckPredictions(const Corpus& corpus, const serve::ServedModel& model,
                      const Window& w, std::map<size_t, int>* reference,
                      Report* report) {
  std::vector<size_t> todo;  // graph keys still without a reference
  std::vector<size_t> todo_request;
  for (size_t i = 0; i < w.requests.size(); ++i) {
    if (w.result.outcome[i] != Outcome::kOk) continue;
    const size_t key = corpus.GraphKey(w.requests[i]);
    if (reference->count(key) != 0) continue;
    (*reference)[key] = -1;
    todo.push_back(key);
    todo_request.push_back(w.requests[i]);
  }
  // The server is idle between windows, so the check may use every core.
  std::vector<int> predicted(todo.size(), -1);
  std::vector<std::thread> workers;
  for (int lane = 0; lane < model.lanes(); ++lane) {
    workers.emplace_back([&, lane] {
      for (size_t t = static_cast<size_t>(lane); t < todo.size();
           t += static_cast<size_t>(model.lanes())) {
        const PreparedGraph graph =
            PrepareGraph(corpus.BuildGraph(todo_request[t]), corpus.spec());
        predicted[t] = model.Predict(graph, lane);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (size_t t = 0; t < todo.size(); ++t) (*reference)[todo[t]] = predicted[t];
  size_t mismatches = 0;
  for (size_t i = 0; i < w.requests.size(); ++i) {
    if (w.result.outcome[i] != Outcome::kOk) continue;
    if (w.result.prediction[i] != reference->at(corpus.GraphKey(w.requests[i]))) {
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    report->Mismatch(std::to_string(mismatches) +
                     " served predictions differ from ServedModel::Predict");
  }
}

/// Every request accounted for, on both sides of the wire.
void CheckAccounting(const LoadResult& r, double server_frames,
                     Report* report) {
  if (r.ok + r.shed + r.errors + r.unanswered != r.sent ||
      r.sent != r.outcome.size()) {
    report->Mismatch("client tallies do not add up to requests sent");
  }
  if (static_cast<size_t>(server_frames) != r.sent) {
    report->Mismatch("server decoded " + std::to_string(server_frames) +
                     " frames for " + std::to_string(r.sent) + " sent");
  }
  if (!r.error.empty()) report->Mismatch(r.error);
}

}  // namespace

Report RunServeWorkload(const RunOptions& options) {
  Report report;
  obs::SetMetricsEnabled(true);  // hap_served's default
  SetNumThreads(kPoolThreads);
  Corpus corpus(options.seed);

  // Weights are fixed (not drawn from the workload seed): the seed picks
  // inputs, never the program.
  const std::string checkpoint = options.workdir + "/model.ckpt";
  {
    Rng init(5);
    const serve::ServedModelConfig config = ModelConfig(corpus);
    GraphClassifier writer(
        MakeEmbedderByName(config.method, config.feature_dim, config.hidden, &init),
        config.num_classes, config.hidden, &init);
    if (Status s = SaveModule(writer, checkpoint); !s.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
      report.valid = false;
      return report;
    }
  }

  // Set-up: checkpoint load, engine and server start. The untraced run
  // times kSetupPerCpu starts (each stopped again) on each CPU in turn
  // (MoveToCpu), before and after its nominal window: back-to-back starts
  // stay on one vCPU, and on a shared host one vCPU often runs markedly
  // slower than the others for minutes. The traced run opens an access
  // log, which turns on the engine's per-request stage stamps.
  std::vector<double> setup_s;
  auto time_setups = [&] {
    for (int i = 0; i < kSetupPerCpu * AllowedCpus(); ++i) {
      if (i % kSetupPerCpu == 0) MoveToCpu(i / kSetupPerCpu);
      const uint64_t t0 = NowNs();
      const std::unique_ptr<Stack> timed = StartStack(corpus, checkpoint, "");
      if (!timed) return false;
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    return true;
  };
  if (!options.trace && !time_setups()) {
    report.valid = false;
    return report;
  }
  const std::unique_ptr<Stack> stack =
      StartStack(corpus, checkpoint, options.trace ? options.workdir + "/access.jsonl" : "");
  if (!stack) {
    report.valid = false;
    return report;
  }
  // Output checks run on a separate instance of the same checkpoint, so
  // they never share a lane with the engine.
  serve::ServedModelConfig reference_config = ModelConfig(corpus);
  reference_config.lanes = kCheckThreads;
  auto reference_model = serve::ServedModel::Load(reference_config, checkpoint);
  if (!reference_model.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", reference_model.status().ToString().c_str());
    report.valid = false;
    return report;
  }
  const serve::ServedModel& model = *reference_model.value();
  std::map<size_t, int> reference;

  // Runs one window of `count` requests (see RunWindow) under `spec` on
  // `client` with obs deltas in `obs`, checks its outputs and its
  // accounting, and counts its requests.
  auto measure = [&](WireClient* client, const LoadSpec& spec, size_t count,
                     ObsWindow* obs, size_t block = 0) {
    *obs = ObsWindow();
    Window w = RunWindow(&corpus, client, spec, count, block);
    obs->Close();
    CheckAccounting(w.result, obs->Counter(names::kServeNetRequestsBinary), &report);
    CheckPredictions(corpus, model, w, &reference, &report);
    report.attempted += w.result.sent;
    report.failed += w.result.shed + w.result.errors + w.result.unanswered;
    return w;
  };
  // Opens kConnections connections to `target` and warms them up (see
  // kWarmupSeconds); nullptr when the connections cannot be opened.
  uint64_t clients = 0;
  auto connect = [&](Stack* target) -> std::unique_ptr<WireClient> {
    auto client = std::make_unique<WireClient>(target->server->port(), kConnections,
                                               options.seed * 31 + clients++);
    if (!client->error().empty()) {
      std::fprintf(stderr, "perfbench: %s\n", client->error().c_str());
      return nullptr;
    }
    ObsWindow obs;
    measure(client.get(), Nominal(), NominalCount(kWarmupSeconds), &obs);
    return client;
  };
  std::unique_ptr<WireClient> client = connect(stack.get());
  if (!client) {
    report.valid = false;
    return report;
  }

  if (!options.trace) {
    // One continuous window at the nominal rate. Its first kSettleSeconds
    // are not counted: responses on a connection that has been idle go
    // out at once, and under steady load the connections settle into the
    // state they keep (README.md "Baseline finding"). The rest is cut
    // into consecutive sub-windows of kSubWindow answers, each a sample
    // for kLeastDisturbed.
    ObsWindow obs;
    const LoadResult r =
        measure(client.get(), Nominal(), NominalCount(kSettleSeconds + options.seconds), &obs)
            .result;
    if (!GeneratorKeptUp(r)) {
      std::fprintf(stderr, "perfbench: generator fell behind its schedule; run invalid\n");
      report.valid = false;
      return report;
    }
    const size_t settle = static_cast<size_t>(kNominalQps * kSettleSeconds);
    std::vector<double> ok_ms;
    for (size_t i = settle; i < r.sent; ++i) {
      if (r.outcome[i] == Outcome::kOk) {
        ok_ms.push_back(static_cast<double>(r.latency_ns[i]) / 1e6);
      }
    }
    const SubWindowSummary latency =
        SubWindowQuantiles(ok_ms, kSubWindow, kMaxSubWindows, kLeastDisturbed);
    std::fprintf(stderr,
                 "perfbench: nominal %.0f req/s: %zu sent, %zu ok, lateness p90 %.3f ms; "
                 "%zu sub-windows: p50 %.3f ms, tail %.3f ms\n",
                 kNominalQps, r.sent, r.ok, r.LatenessQuantileMs(0.9), latency.windows,
                 latency.p50, latency.tail);
    if (!time_setups()) {
      report.valid = false;
      return report;
    }
    report.Set("latency_p50_ms", latency.p50, "ms");
    report.Set("latency_p99_ms", latency.tail, "ms");
    report.Set("setup_s", Quantile(setup_s, kLeastDisturbed), "s");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    return report;
  }

  // --- Traced run: the nominal load on the stack with the access log
  // open, obs deltas over that window, the tracing overhead against a
  // stack without the log, then replays of the window's own inputs
  // through the parse, cache and model layers under spans.
  ObsWindow obs;
  const Window w =
      measure(client.get(), Nominal(), NominalCount(0.5 * options.seconds), &obs);
  const LoadResult& r = w.result;
  if (!GeneratorKeptUp(r)) {
    std::fprintf(stderr, "perfbench: generator fell behind its schedule; run invalid\n");
    report.valid = false;
    return report;
  }
  const double q = TailQuantile(r.ok);
  const double client_p50 = r.OkLatencyQuantileMs(0.5);
  const double client_tail = r.OkLatencyQuantileMs(q);
  double client_mean = 0.0;
  for (size_t i = 0; i < r.sent; ++i) {
    if (r.outcome[i] == Outcome::kOk) client_mean += static_cast<double>(r.latency_ns[i]);
  }
  client_mean = Ratio(client_mean, static_cast<double>(r.ok)) / 1e6;

  report.Set("gen.lateness_p99_ms", r.LatenessQuantileMs(0.99), "ms");
  report.Set("wire.gap_p50_ms", client_p50 - obs.SketchQuantileMs(names::kServeLatencyNs, 0.5), "ms");
  report.Set("wire.gap_p99_ms", client_tail - obs.SketchQuantileMs(names::kServeLatencyNs, q), "ms");
  report.Set("wire.gap_mean_ms", client_mean - obs.SketchMeanMs(names::kServeLatencyNs), "ms");
  report.Set("wire.req_bytes_mean", Ratio(static_cast<double>(r.bytes_sent), static_cast<double>(r.sent)), "bytes");
  report.Set("wire.protocol_errors",
             obs.Counter(names::kServeNetProtocolErrors) + static_cast<double>(r.protocol_errors),
             "count");
  const double hits = obs.Counter(names::kServeCacheHit);
  report.Set("cache.hit_ratio", Ratio(hits, hits + obs.Counter(names::kServeCacheMiss)), "ratio");
  report.Set("cache.evicted", obs.Counter(names::kServeCacheEvicted), "count");
  report.Set("admission.shed_frac", Ratio(obs.Counter(names::kServeShedTotal), static_cast<double>(r.sent)), "ratio");
  report.Set("queue.wait_p50_ms", obs.SketchQuantileMs(names::kServeQueueWaitNs, 0.5), "ms");
  report.Set("queue.wait_p99_ms", obs.SketchQuantileMs(names::kServeQueueWaitNs, q), "ms");
  report.Set("engine.batch_size_mean",
             Ratio(obs.HistogramSum(names::kServeBatchSize), obs.HistogramCount(names::kServeBatchSize)),
             "requests");
  report.Set("engine.coalesce_frac",
             Ratio(obs.Counter(names::kServeCoalesced), obs.Counter(names::kServeRequests)), "ratio");
  report.Set("engine.dispatch_p99_ms", obs.SketchQuantileMs(names::kServeStageDispatchNs, q), "ms");
  report.Set("engine.forward_p50_ms", obs.SketchQuantileMs(names::kServeStageForwardNs, 0.5), "ms");
  report.Set("engine.forward_p99_ms", obs.SketchQuantileMs(names::kServeStageForwardNs, q), "ms");
  report.Set("engine.resolve_p99_ms", obs.SketchQuantileMs(names::kServeStageResolveNs, q), "ms");
  report.Set("engine.latency_p50_ms", obs.SketchQuantileMs(names::kServeLatencyNs, 0.5), "ms");
  report.Set("engine.latency_p99_ms", obs.SketchQuantileMs(names::kServeLatencyNs, q), "ms");
  report.Set("engine.deadline_miss",
             obs.Counter(names::kServeDeadlineMiss) + obs.Counter(names::kServeDeadlineSkipped), "count");
  AddKernelAndPoolMetrics(obs, kPoolThreads, &report);

  // Tracing overhead: short windows alternate between a stack without the
  // access log and the traced one; each pair compares the server's own
  // serve.latency.ns p50, which the wire gap does not touch, and the
  // median of the pairs' ratios is reported.
  {
    std::unique_ptr<Stack> plain = StartStack(corpus, checkpoint, "");
    std::unique_ptr<WireClient> plain_client = plain ? connect(plain.get()) : nullptr;
    if (!plain_client) {
      report.valid = false;
      return report;
    }
    const double pair_s = 0.5 * options.seconds / (2 * kOverheadPairs);
    std::vector<double> ratios;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
      ObsWindow plain_obs, traced_obs;
      const Window a = measure(plain_client.get(), Nominal(), NominalCount(pair_s), &plain_obs);
      const Window b = measure(client.get(), Nominal(), NominalCount(pair_s), &traced_obs);
      if (!GeneratorKeptUp(a.result) || !GeneratorKeptUp(b.result)) {
        std::fprintf(stderr, "perfbench: generator fell behind its schedule; run invalid\n");
        report.valid = false;
        return report;
      }
      ratios.push_back(Ratio(traced_obs.SketchQuantileMs(names::kServeLatencyNs, 0.5),
                             plain_obs.SketchQuantileMs(names::kServeLatencyNs, 0.5)) - 1.0);
    }
    report.Set("trace.overhead_frac", Median(ratios), "ratio");

    // Capacity, on the stack without the access log: closed loop at
    // saturation, one block of kCapacityBlock new requests sent over and
    // over, so every pass over the block is the same work; the block's
    // size over the median server CPU time of a pass. CPU time, because
    // time the host takes a vCPU away does not count in it; the median,
    // because a pass's interval holds a pass's worth of answers give or
    // take the requests outstanding.
    LoadSpec closed;
    closed.window = kCapacityWindow;
    closed.closed_s = kCapacityShare * options.seconds;
    closed.drain_s = 10.0;
    closed.mark_every = kCapacityBlock;
    ObsWindow closed_obs;
    const LoadResult c =
        measure(plain_client.get(), closed,
                static_cast<size_t>(kMaxCapacityQps * closed.closed_s), &closed_obs,
                kCapacityBlock)
            .result;
    std::vector<double> pass_cpu_s;
    for (size_t k = 0; k + 2 < c.mark_ns.size(); ++k) {  // the last pass is partial
      pass_cpu_s.push_back(
          static_cast<double>(c.mark_other_cpu_ns[k + 1] - c.mark_other_cpu_ns[k]) / 1e9);
    }
    report.Set("serve.capacity_per_cpu_s",
               Ratio(static_cast<double>(kCapacityBlock), Median(pass_cpu_s)), "1/s");
  }

  // Replays over the window's first distinct graphs, in request order.
  std::map<size_t, size_t> slot_of;  // graph key -> index into `graphs`
  std::vector<Graph> graphs;
  for (size_t req : w.requests) {
    if (graphs.size() >= kReplayGraphs) break;
    if (slot_of.emplace(corpus.GraphKey(req), graphs.size()).second) {
      graphs.push_back(corpus.BuildGraph(req));
    }
  }
  SpanLog spans;
  for (const Graph& g : graphs) {
    std::ostringstream text;
    WriteGraph(g, &text);
    std::istringstream in(text.str());
    ScopedSpan span(&spans, "parse");
    if (!ReadGraph(&in).ok()) report.Mismatch("replayed payload does not parse");
  }
  {
    // The window's request sequence restricted to the sampled graphs, so
    // the hit pattern is the window's.
    serve::GraphCache cache(256, corpus.spec());
    for (size_t req : w.requests) {
      auto it = slot_of.find(corpus.GraphKey(req));
      if (it == slot_of.end()) continue;
      ScopedSpan span(&spans, "prepare");
      std::shared_ptr<const PreparedGraph> prepared = cache.Prepare(graphs[it->second]);
    }
  }
  const auto totals = spans.Summarize();
  auto mean_us = [&totals](const char* name) {
    auto it = totals.find(name);
    return it == totals.end()
               ? 0.0
               : Ratio(static_cast<double>(it->second.total_ns),
                       static_cast<double>(it->second.count)) / 1e3;
  };
  report.Set("io.parse_us_mean", mean_us("parse"), "us");
  report.Set("cache.prepare_us_mean", mean_us("prepare"), "us");

  // Model split on the served weights (the same checkpoint).
  const int feature_dim = corpus.spec().FeatureDim();
  Rng init(5);
  GraphClassifier classifier(MakeEmbedderByName("HAP", feature_dim, kHidden, &init),
                             corpus.num_classes(), kHidden, &init);
  if (Status s = LoadModule(&classifier, checkpoint); !s.ok()) {
    report.Mismatch("checkpoint reload: " + s.ToString());
    return report;
  }
  classifier.set_training(false);
  std::vector<PreparedGraph> prepared;
  for (const Graph& g : graphs) prepared.push_back(PrepareGraph(g, corpus.spec()));
  std::vector<const PreparedGraph*> ptrs;
  for (const PreparedGraph& g : prepared) ptrs.push_back(&g);
  AddModelMetrics(TraceModel(classifier, feature_dim, kHidden, ptrs, 3), &report);
  return report;
}

}  // namespace perfbench
