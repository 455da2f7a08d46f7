#include "train/classifier.h"

#include "common/check.h"
#include "tensor/ops.h"
#include "tensor/segment_ops.h"
#include "train/train_loop.h"

namespace hap {

GraphClassifier::GraphClassifier(std::unique_ptr<GraphEmbedder> embedder,
                                 int num_classes, int head_hidden, Rng* rng)
    : embedder_(std::move(embedder)),
      head1_(embedder_->embedding_dim() * embedder_->NumLevels(), head_hidden,
             rng),
      head2_(head_hidden, num_classes, rng) {}

Tensor GraphClassifier::Logits(const PreparedGraph& graph) const {
  std::vector<Tensor> levels =
      embedder_->EmbedLevels(graph.h, graph.level);
  Tensor joined = levels[0];
  for (size_t level = 1; level < levels.size(); ++level) {
    joined = ConcatCols(joined, levels[level]);
  }
  return head2_.Forward(Relu(head1_.Forward(joined)));
}

int GraphClassifier::Predict(const PreparedGraph& graph) const {
  NoGradGuard guard;
  Tensor logits = Logits(graph);
  int best = 0;
  for (int c = 1; c < logits.cols(); ++c) {
    if (logits.At(0, c) > logits.At(0, best)) best = c;
  }
  return best;
}

Tensor GraphClassifier::Loss(const PreparedGraph& graph) const {
  HAP_CHECK_GE(graph.label, 0);
  return NllLoss(LogSoftmaxRows(Logits(graph)), {graph.label});
}

Tensor GraphClassifier::LogitsBatched(
    const BatchedGraph& batch, const std::vector<uint64_t>& noise_seeds) const {
  std::vector<Tensor> levels =
      embedder_->EmbedLevelsBatched(batch, noise_seeds);
  Tensor joined = levels[0];
  for (size_t level = 1; level < levels.size(); ++level) {
    joined = ConcatCols(joined, levels[level]);
  }
  // One segment per row: the heads' weight/bias gradients then accumulate
  // example by example, mirroring the per-graph tapes (docs/BATCHING.md).
  const SegmentSpec seg = SegmentSpec::RowPerSegment(batch.num_graphs());
  return head2_.ForwardBatched(Relu(head1_.ForwardBatched(joined, seg)), seg);
}

std::vector<int> GraphClassifier::PredictBatched(
    const BatchedGraph& batch) const {
  NoGradGuard guard;
  Tensor logits = LogitsBatched(batch, {});
  std::vector<int> preds(batch.num_graphs(), 0);
  for (int g = 0; g < logits.rows(); ++g) {
    for (int c = 1; c < logits.cols(); ++c) {
      if (logits.At(g, c) > logits.At(g, preds[g])) preds[g] = c;
    }
  }
  return preds;
}

Tensor GraphClassifier::LossesBatched(
    const BatchedGraph& batch, const std::vector<uint64_t>& noise_seeds) const {
  HAP_CHECK_EQ(static_cast<int>(batch.labels.size()), batch.num_graphs());
  for (int label : batch.labels) HAP_CHECK_GE(label, 0);
  return NllLossPerRow(LogSoftmaxRows(LogitsBatched(batch, noise_seeds)),
                       batch.labels);
}

void GraphClassifier::CollectParameters(std::vector<Tensor>* out) const {
  embedder_->CollectParameters(out);
  head1_.CollectParameters(out);
  head2_.CollectParameters(out);
}

Tensor GraphClassifier::Embed(const PreparedGraph& graph) const {
  NoGradGuard guard;
  return embedder_->Embed(graph.h, graph.level);
}

double EvaluateClassifier(const GraphClassifier& model,
                          const std::vector<PreparedGraph>& data,
                          const std::vector<int>& indices) {
  if (indices.empty()) return 0.0;
  int correct = 0;
  for (int index : indices) {
    if (model.Predict(data[index]) == data[index].label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(indices.size());
}

ClassificationResult TrainClassifier(GraphClassifier* model,
                                     const std::vector<PreparedGraph>& data,
                                     const Split& split,
                                     const TrainConfig& config) {
  return TrainClassifier(model, data, split, config, nullptr);
}

ClassificationResult TrainClassifier(
    GraphClassifier* model, const std::vector<PreparedGraph>& data,
    const Split& split, const TrainConfig& config,
    const ClassifierFactory& replica_factory) {
  const Replicas<GraphClassifier> replicas(model, config, replica_factory);
  ClassificationResult result;
  TrainTask task;
  task.name = "classification";
  task.metric_key = "val_accuracy";
  task.models = replicas.modules();
  task.items = split.train;
  task.loss = [&](int worker, int item) {
    return replicas[worker]->Loss(data[item]);
  };
  // Batched forward (docs/BATCHING.md): each worker's slice runs as one
  // tape over the concatenated graphs. Architectures without a batched
  // mirror keep the per-example loss.
  if (model->SupportsBatched()) {
    task.slice_losses = [&](int worker, const std::vector<int>& items,
                            const std::vector<uint64_t>& seeds) {
      std::vector<Tensor> features;
      std::vector<GraphLevel> levels;
      std::vector<int> labels;
      features.reserve(items.size());
      levels.reserve(items.size());
      labels.reserve(items.size());
      for (int item : items) {
        features.push_back(data[item].h);
        levels.push_back(data[item].level);
        labels.push_back(data[item].label);
      }
      return replicas[worker]->LossesBatched(
          BatchGraphs(features, levels, labels), seeds);
    };
  }
  task.metric = [&] { return EvaluateClassifier(*model, data, split.val); };
  task.on_best = [&](double val) {
    result.val_accuracy = val;
    result.test_accuracy = EvaluateClassifier(*model, data, split.test);
    result.train_accuracy = EvaluateClassifier(*model, data, split.train);
  };
  TrainLoopResult loop = RunTrainLoop(config, task);
  result.best_epoch = loop.best_epoch;
  result.epoch_losses = std::move(loop.epoch_losses);
  return result;
}

}  // namespace hap
