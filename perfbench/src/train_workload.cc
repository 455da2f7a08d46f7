// train_hap: closed-loop TrainClassifier on HAP over a PROTEINS-like
// mixed-size corpus (num_threads 2, batched forward, early stopping off).
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "graph/batched_graph.h"
#include "graph/datasets.h"
#include "model_trace.h"
#include "obs/metric_names.h"
#include "spans.h"
#include "stats.h"
#include "tensor/arena.h"
#include "tensor/optimizer.h"
#include "train/classifier.h"
#include "train/model_zoo.h"
#include "train/parallel_batch.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace hap;
namespace names = hap::obs::names;

constexpr int kCorpus = 320;
constexpr int kHidden = 32;
constexpr int kEpochs = 8;
constexpr int kThreads = 2;
constexpr int kModelSample = 48;
constexpr int kPollUs = 50;  // StepPoller interval

struct Corpus {
  GraphDataset dataset;
  Split split;
};

Corpus MakeCorpus(uint64_t seed) {
  Rng rng(seed);
  Corpus c;
  c.dataset = MakeProteinsLike(kCorpus, &rng);
  c.split = SplitIndices(static_cast<int>(c.dataset.graphs.size()), &rng);
  return c;
}

TrainConfig Config(uint64_t seed) {
  TrainConfig config;
  config.epochs = kEpochs;
  config.patience = 0;
  config.seed = seed;
  config.num_threads = kThreads;
  config.batched_forward = true;
  return config;
}

std::unique_ptr<GraphClassifier> MakeModel(const GraphDataset& dataset) {
  Rng init(5);
  const int feature_dim = dataset.feature_spec.FeatureDim();
  return std::make_unique<GraphClassifier>(
      MakeEmbedderByName("HAP", feature_dim, kHidden, &init),
      dataset.num_classes, kHidden, &init);
}

int StepsPerEpoch(const Corpus& c, const TrainConfig& config) {
  const int n = static_cast<int>(c.split.train.size());
  return (n + config.batch_size - 1) / config.batch_size;
}

/// Watches the program's train.batches counter (ticked as each optimizer
/// step's batch starts) from a second thread, so step timing comes out of
/// an unmodified TrainClassifier call. Records when the counter was first
/// seen at each value; a step's start is known to within one poll.
class StepPoller {
 public:
  struct Seen {
    uint64_t steps;  // steps started since the poller was created
    uint64_t ns;
  };

  StepPoller() : counter_(obs::GetCounter(names::kTrainBatches)) {
    base_ = counter_->Value();
    thread_ = std::thread([this] { Loop(); });
  }
  ~StepPoller() { Stop(); }
  StepPoller(const StepPoller&) = delete;
  StepPoller& operator=(const StepPoller&) = delete;

  std::vector<Seen> Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    return seen_;
  }

 private:
  void Loop() {
    // Wake-ups on time: the default 50 us timer slack would be as large
    // as the poll interval.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    uint64_t last = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      const uint64_t steps = counter_->Value() - base_;
      if (steps != last) {
        seen_.push_back({steps, NowNs()});
        last = steps;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(kPollUs));
    }
  }

  obs::Counter* counter_;
  uint64_t base_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<Seen> seen_;
  std::thread thread_;
};

/// Adds the wall time of each optimizer step in ms to times[step - 1]:
/// from its start to the next step's start, for every step whose start
/// and successor's start the poller saw exactly. The last step of each
/// epoch is left out, because the evaluation between epochs follows it.
void AddStepTimesMs(const std::vector<StepPoller::Seen>& seen, int per_epoch,
                    std::vector<std::vector<double>>* times) {
  for (size_t i = 0; i + 1 < seen.size(); ++i) {
    const uint64_t step = seen[i].steps;
    if (seen[i + 1].steps != step + 1 || step % static_cast<uint64_t>(per_epoch) == 0 ||
        step > times->size()) {
      continue;
    }
    (*times)[step - 1].push_back(static_cast<double>(seen[i + 1].ns - seen[i].ns) / 1e6);
  }
}

bool AllFinite(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

struct LoopResult {
  std::vector<double> epoch_losses;
  double wall_s = 0.0;
};

/// TrainClassifier's data-parallel batched loop, step for step, through
/// the same public pieces (ParallelBatchRunner::RunBatchBatched,
/// Adam, EvaluateClassifier), so spans can sit between them. With
/// `spans` null it records nothing. While it follows TrainClassifier, its
/// epoch losses equal TrainClassifier's for the same seed.
LoopResult MirrorLoop(GraphClassifier* model, const std::vector<PreparedGraph>& data,
                      const Corpus& corpus, const TrainConfig& config,
                      SpanLog* spans) {
  Rng rng(config.seed);
  Adam optimizer(model->Parameters(), config.lr);
  std::vector<int> order = corpus.split.train;
  std::vector<std::unique_ptr<GraphClassifier>> storage;
  std::vector<GraphClassifier*> models = {model};
  for (int w = 1; w < config.num_threads; ++w) {
    storage.push_back(MakeModel(corpus.dataset));
    models.push_back(storage.back().get());
  }
  std::vector<std::vector<Tensor>> replica_params;
  for (GraphClassifier* m : models) replica_params.push_back(m->Parameters());
  ParallelBatchRunner runner(model->Parameters(), std::move(replica_params));
  Rng noise_seeds(config.seed * 0x9e3779b97f4a7c15ull + 0x51ab5eedull);
  auto arena = std::make_shared<TensorArena>();
  ArenaScope arena_scope(arena);

  LoopResult out;
  const uint64_t t0 = NowNs();
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    for (GraphClassifier* m : models) m->set_training(true);
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(config.batch_size)) {
      const size_t stop =
          std::min(order.size(), start + static_cast<size_t>(config.batch_size));
      const std::vector<int> batch(order.begin() + start, order.begin() + stop);
      std::optional<ScopedSpan> step;
      if (spans) step.emplace(spans, "step");
      {
        std::optional<ScopedSpan> run;
        uint32_t run_id = 0;
        if (spans) {
          run.emplace(spans, "runner");
          run_id = run->id();
        }
        epoch_loss += runner.RunBatchBatched(
            batch, noise_seeds.NextU64(), 1.0f / config.batch_size,
            [&](int worker, const std::vector<int>& items,
                const std::vector<uint64_t>& seeds) {
              std::optional<ScopedSpan> slice;
              if (spans) slice.emplace(spans, "slice", run_id);
              std::vector<Tensor> features;
              std::vector<GraphLevel> levels;
              std::vector<int> labels;
              for (int item : items) {
                features.push_back(data[item].h);
                levels.push_back(data[item].level);
                labels.push_back(data[item].label);
              }
              return models[worker]->LossesBatched(
                  BatchGraphs(features, levels, labels), seeds);
            });
      }
      {
        std::optional<ScopedSpan> opt;
        if (spans) opt.emplace(spans, "optimizer");
        optimizer.ClipGradNorm(config.clip_norm);
        optimizer.Step();
      }
      arena->ResetStep();
      runner.ResetStep();
    }
    out.epoch_losses.push_back(epoch_loss /
                               static_cast<double>(std::max<size_t>(order.size(), 1)));
    model->set_training(false);
    std::optional<ScopedSpan> eval;
    if (spans) eval.emplace(spans, "eval");
    EvaluateClassifier(*model, data, corpus.split.val);
  }
  out.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  return out;
}

double GraphsPerSecond(const Corpus& c, const TrainConfig& config, double wall_s) {
  return Ratio(static_cast<double>(config.epochs) * static_cast<double>(c.split.train.size()),
               wall_s);
}

}  // namespace

Report RunTrainWorkload(const RunOptions& options) {
  Report report;
  SetNumThreads(kThreads);
  const Corpus corpus = MakeCorpus(options.seed);
  const TrainConfig config = Config(options.seed);
  const int per_epoch = StepsPerEpoch(corpus, config);
  const ClassifierFactory factory = [&corpus] { return MakeModel(corpus.dataset); };

  if (!options.trace) {
    // Repeat whole TrainClassifier runs until the time is used up; each
    // repeat runs the same steps on the same batches. Set-up
    // (PrepareDataset and model build) is timed on every repeat. Step k's
    // time is its kLeastDisturbed quantile over the repeats
    // (PerIndexQuantile), and the metrics are taken over those step times.
    std::vector<double> setup_s;
    std::vector<std::vector<double>> step_ms(static_cast<size_t>(per_epoch) * config.epochs);
    std::vector<double> first_losses;
    int repeats = 0;
    const uint64_t deadline =
        NowNs() + static_cast<uint64_t>(options.seconds * 1e9);
    for (; repeats < 2 || NowNs() < deadline; ++repeats) {
      const uint64_t t0 = NowNs();
      const std::vector<PreparedGraph> data = PrepareDataset(corpus.dataset);
      std::unique_ptr<GraphClassifier> model = MakeModel(corpus.dataset);
      const uint64_t t1 = NowNs();
      setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);

      StepPoller poller;
      const ClassificationResult result =
          TrainClassifier(model.get(), data, corpus.split, config, factory);
      AddStepTimesMs(poller.Stop(), per_epoch, &step_ms);

      report.attempted += static_cast<uint64_t>(per_epoch) * config.epochs;
      for (double loss : result.epoch_losses) {
        if (!std::isfinite(loss)) report.failed += static_cast<uint64_t>(per_epoch);
      }
      if (static_cast<int>(result.epoch_losses.size()) != config.epochs) {
        report.Mismatch("training stopped early");
      }
      if (repeats == 0) {
        first_losses = result.epoch_losses;
      } else if (result.epoch_losses != first_losses) {
        report.Mismatch("epoch loss trajectory differs across same-seed repeats");
      }
    }
    const std::vector<double> steps =
        PerIndexQuantile(step_ms, kLeastDisturbed, static_cast<size_t>(repeats + 1) / 2);
    double total_ms = 0.0;
    for (double ms : steps) total_ms += ms;
    const double tail_q = TailQuantile(steps.size());
    std::fprintf(stderr,
                 "perfbench: %d repeats, %zu steps timed: p50 %.3f ms, tail p%.2f %.3f ms, "
                 "mean %.3f ms\n",
                 repeats, steps.size(), Median(steps), 100.0 * tail_q,
                 Quantile(steps, tail_q), Ratio(total_ms, static_cast<double>(steps.size())));
    report.Set("latency_p50_ms", Median(steps), "ms");
    report.Set("latency_p99_ms", Quantile(steps, tail_q), "ms");
    report.Set("setup_s", Quantile(setup_s, kLeastDisturbed), "s");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    return report;
  }

  // --- Traced run: TrainClassifier twice (the same seed must give the
  // same losses), then the loop rebuilt from the program's public pieces
  // (MirrorLoop), untraced and traced with spans and detailed metrics on.
  // The two mirrored runs must agree with each other. When they do not
  // reproduce TrainClassifier's losses, the mirror no longer follows the
  // program's loop: the train.* split is withheld, since it would time a
  // loop the program no longer runs, and the rest is still reported.
  const std::vector<PreparedGraph> data = PrepareDataset(corpus.dataset);
  std::vector<double> reference;
  for (int repeat = 0; repeat < 2; ++repeat) {
    std::unique_ptr<GraphClassifier> model = MakeModel(corpus.dataset);
    const std::vector<double> losses =
        TrainClassifier(model.get(), data, corpus.split, config, factory).epoch_losses;
    if (repeat == 0) {
      reference = losses;
    } else if (losses != reference) {
      report.Mismatch("epoch loss trajectory differs across same-seed repeats");
    }
  }
  LoopResult plain;
  {
    std::unique_ptr<GraphClassifier> model = MakeModel(corpus.dataset);
    plain = MirrorLoop(model.get(), data, corpus, config, nullptr);
  }
  SpanLog spans;
  std::unique_ptr<GraphClassifier> model = MakeModel(corpus.dataset);
  obs::SetMetricsEnabled(true);
  ObsWindow obs;
  const LoopResult traced = MirrorLoop(model.get(), data, corpus, config, &spans);
  obs.Close();
  obs::SetMetricsEnabled(false);
  if (traced.epoch_losses != plain.epoch_losses) {
    report.Mismatch("the same loop gives other losses with metrics on");
  }
  const bool mirror_current = plain.epoch_losses == reference;
  if (!mirror_current) {
    std::fprintf(stderr,
                 "perfbench: warning: MirrorLoop no longer reproduces TrainClassifier's "
                 "losses; train.* withheld until it follows the program's loop again\n");
  }
  if (!AllFinite(traced.epoch_losses)) report.failed += 1;
  report.attempted = static_cast<uint64_t>(per_epoch) * config.epochs * 4;

  const auto totals = spans.Summarize();
  auto total_ms = [&totals](const char* name, bool self) {
    auto it = totals.find(name);
    if (it == totals.end()) return 0.0;
    return static_cast<double>(self ? it->second.self_ns : it->second.total_ns) / 1e6;
  };
  auto count = [&totals](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  if (mirror_current) {
    std::vector<double> step_ms;
    for (uint64_t ns : spans.Durations("step")) step_ms.push_back(static_cast<double>(ns) / 1e6);
    double step_total_ms = 0.0;
    for (double ms : step_ms) step_total_ms += ms;
    report.Set("train.graphs_per_s",
               Ratio(static_cast<double>(config.epochs) *
                         static_cast<double>(corpus.split.train.size()),
                     step_total_ms / 1e3),
               "1/s");
    report.Set("train.step_ms_p50", Median(step_ms), "ms");
    report.Set("train.step_ms_p99", Quantile(step_ms, TailQuantile(step_ms.size())), "ms");
    report.Set("train.slice_ms_mean", Ratio(total_ms("slice", false), count("slice")), "ms");
    report.Set("train.runner_ms_mean", Ratio(total_ms("runner", true), count("runner")), "ms");
    report.Set("train.optimizer_ms_mean", Ratio(total_ms("optimizer", false), count("optimizer")), "ms");
    report.Set("train.eval_ms_per_epoch", Ratio(total_ms("eval", false), count("eval")), "ms");
  }
  report.Set("trace.overhead_frac",
             Ratio(GraphsPerSecond(corpus, config, plain.wall_s),
                   GraphsPerSecond(corpus, config, traced.wall_s)) - 1.0,
             "ratio");
  AddKernelAndPoolMetrics(obs, kThreads, &report);

  model->set_training(false);
  std::vector<const PreparedGraph*> sample;
  for (size_t i = 0; i < data.size() && sample.size() < kModelSample; ++i) {
    sample.push_back(&data[i]);
  }
  AddModelMetrics(TraceModel(*model, corpus.dataset.feature_spec.FeatureDim(), kHidden,
                             sample, 2),
                  &report);
  return report;
}

}  // namespace perfbench
