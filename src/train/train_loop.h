#ifndef HAP_TRAIN_TRAIN_LOOP_H_
#define HAP_TRAIN_TRAIN_LOOP_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/check.h"
#include "tensor/module.h"
#include "tensor/tensor.h"
#include "train/classifier.h"

namespace hap {

/// What a trainer hands the one training loop: the models, the items an
/// epoch steps through, and how one item's loss is computed. The loop
/// owns everything else — item order, noise seeds, the data-parallel
/// runner, the optimizer step, evaluation with early stopping and the run
/// log (docs/ARCHITECTURE.md, "Training layer").
struct TrainTask {
  /// Run-log labels: the JSONL "task" field and the selection metric key.
  const char* name = "";
  const char* metric_key = "";
  /// models[0] is the master the optimizer steps; models[w] is the replica
  /// worker w trains on (see MakeReplicas).
  std::vector<Module*> models;
  /// Item ids passed to `loss`. Each epoch shuffles them in place (the
  /// order carries over to the next epoch) or, when draws_per_epoch > 0,
  /// draws that many of them uniformly with replacement.
  std::vector<int> items;
  int draws_per_epoch = 0;
  /// Loss of one item on worker `worker`'s replica.
  std::function<Tensor(int worker, int item)> loss;
  /// Optional batched form of `loss` for ParallelBatchRunner::
  /// RunBatchBatched; used instead of `loss` when config.batched_forward.
  std::function<Tensor(int worker, const std::vector<int>& items,
                       const std::vector<uint64_t>& seeds)>
      slice_losses;
  /// Selection metric of the master in eval mode, after each epoch.
  std::function<double()> metric;
  /// Called right after `metric` improved, with its value.
  std::function<void(double metric)> on_best;
};

struct TrainLoopResult {
  /// First epoch with the highest selection metric.
  int best_epoch = 0;
  /// Mean training loss per epoch, in epoch order.
  std::vector<double> epoch_losses;
};

/// Trains `task` with Adam and mini-batch gradient accumulation through a
/// ParallelBatchRunner over task.models, so the trajectory is the same for
/// any replica count (docs/THREADING.md). Stops after `config.patience`
/// epochs without a metric improvement when patience > 0.
TrainLoopResult RunTrainLoop(const TrainConfig& config, const TrainTask& task);

/// The master plus max(num_threads, 1) - 1 replicas from `factory`, which
/// is required when num_threads > 1.
template <typename M>
struct Replicas {
  std::vector<std::unique_ptr<M>> owned;
  std::vector<M*> models;

  Replicas(M* master, const TrainConfig& config,
           const std::function<std::unique_ptr<M>()>& factory)
      : models{master} {
    for (int w = 1; w < config.num_threads; ++w) {
      HAP_CHECK(factory != nullptr)
          << "num_threads > 1 needs a replica factory";
      owned.push_back(factory());
      models.push_back(owned.back().get());
    }
  }
  M* operator[](int worker) const { return models[worker]; }
  std::vector<Module*> modules() const {
    return std::vector<Module*>(models.begin(), models.end());
  }
};

}  // namespace hap

#endif  // HAP_TRAIN_TRAIN_LOOP_H_
