#include "train/train_loop.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "obs/metrics.h"
#include "obs/run_logger.h"
#include "obs/trace.h"
#include "tensor/arena.h"
#include "tensor/optimizer.h"
#include "train/parallel_batch.h"

namespace hap {

TrainLoopResult RunTrainLoop(const TrainConfig& config, const TrainTask& task) {
  HAP_CHECK(!task.models.empty());
  HAP_CHECK_GE(config.batch_size, 1);
  Module* master = task.models[0];
  Rng rng(config.seed);
  Adam optimizer(master->Parameters(), config.lr);
  // Per-batch noise seeds come from a dedicated stream on this thread, so
  // the schedule never depends on worker interleaving.
  Rng noise_seeds(config.seed * 0x9e3779b97f4a7c15ull + 0x51ab5eedull);
  std::vector<std::vector<Tensor>> replica_params;
  replica_params.reserve(task.models.size());
  for (Module* m : task.models) replica_params.push_back(m->Parameters());
  ParallelBatchRunner runner(master->Parameters(), std::move(replica_params));
  const bool batched = config.batched_forward && task.slice_losses != nullptr;
  const std::function<void(int, uint64_t)> reseed = [&task](int worker,
                                                            uint64_t seed) {
    task.models[worker]->ReseedNoise(seed);
  };

  // Telemetry: the console line (config.verbose) and the JSONL record
  // (config.log_path). Timers and counter deltas never feed back into the
  // math, so trajectories are identical with logging on or off.
  obs::RunLogger logger(config.verbose, config.log_path);
  obs::RunCounters counters_prev = obs::ReadRunCounters();

  // Step-scoped tensor memory (docs/PERFORMANCE.md): buffers for the
  // tape, eval forwards, and gradients allocated on this thread cycle
  // through this pool (worker threads use the runner's per-worker
  // arenas), so steady-state steps are allocation-free after warm-up.
  auto arena = std::make_shared<TensorArena>();
  ArenaScope arena_scope(arena);

  std::vector<int> order = task.items;
  if (task.draws_per_epoch > 0) order.resize(task.draws_per_epoch);
  const size_t batch_size = static_cast<size_t>(config.batch_size);
  const float loss_scale = 1.0f / config.batch_size;
  TrainLoopResult result;
  double best = -std::numeric_limits<double>::infinity();
  int epochs_since_best = 0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    HAP_TRACE_SCOPE("train.epoch");
    const uint64_t epoch_start_ns = obs::MonotonicNs();
    for (Module* m : task.models) m->set_training(true);
    if (task.draws_per_epoch > 0) {
      const int n = static_cast<int>(task.items.size());
      for (int& item : order) item = task.items[rng.UniformInt(n)];
    } else {
      rng.Shuffle(&order);
    }
    double epoch_loss = 0.0;
    double grad_norm_sum = 0.0;
    int optimizer_steps = 0;
    {
      HAP_TRACE_SCOPE("epoch.train");
      for (size_t start = 0; start < order.size(); start += batch_size) {
        const std::vector<int> batch(
            order.begin() + start,
            order.begin() + std::min(order.size(), start + batch_size));
        const uint64_t seed = noise_seeds.NextU64();
        epoch_loss +=
            batched ? runner.RunBatchBatched(batch, seed, loss_scale,
                                             task.slice_losses)
                    : runner.RunBatch(batch, seed, loss_scale, reseed,
                                      task.loss);
        grad_norm_sum += optimizer.ClipGradNorm(config.clip_norm);
        ++optimizer_steps;
        optimizer.Step();
        arena->ResetStep();
        runner.ResetStep();
      }
    }
    const uint64_t train_end_ns = obs::MonotonicNs();
    const double mean_loss = epoch_loss / std::max<size_t>(order.size(), 1);
    result.epoch_losses.push_back(mean_loss);
    master->set_training(false);
    double metric = 0.0;
    bool stop = false;
    {
      HAP_TRACE_SCOPE("epoch.eval");
      metric = task.metric();
      if (metric > best) {
        best = metric;
        result.best_epoch = epoch;
        task.on_best(metric);
        epochs_since_best = 0;
      } else if (config.patience > 0 &&
                 ++epochs_since_best >= config.patience) {
        stop = true;
      }
    }
    if (logger.enabled()) {
      const uint64_t end_ns = obs::MonotonicNs();
      const obs::RunCounters counters_now = obs::ReadRunCounters();
      const obs::RunCounters delta = counters_now.DeltaSince(counters_prev);
      counters_prev = counters_now;
      obs::JsonRecord record;
      record.Add("task", task.name)
          .Add("epoch", epoch)
          .Add("train_loss", mean_loss)
          .Add(task.metric_key, metric)
          .Add("grad_norm",
               optimizer_steps > 0 ? grad_norm_sum / optimizer_steps : 0.0)
          .Add("train_s", (train_end_ns - epoch_start_ns) / 1e9)
          .Add("eval_s", (end_ns - train_end_ns) / 1e9)
          .Add("epoch_s", (end_ns - epoch_start_ns) / 1e9)
          .Add("matmul_calls", delta.matmul_calls)
          .Add("spmatmul_calls", delta.spmatmul_calls)
          .Add("dispatch_dense", delta.dispatch_dense)
          .Add("dispatch_sparse", delta.dispatch_sparse)
          .Add("cache_hits", delta.cache_hits)
          .Add("cache_misses", delta.cache_misses);
      char line[128];
      std::snprintf(line, sizeof(line), "%s epoch %d loss %.4f %s %.4f",
                    task.name, epoch, mean_loss, task.metric_key, metric);
      logger.Log(record, line);
    }
    if (stop) break;
  }
  return result;
}

}  // namespace hap
