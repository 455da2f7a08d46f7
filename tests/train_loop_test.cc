#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/hap_model.h"
#include "matching/simgnn.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "train/classifier.h"
#include "train/pair_scorer.h"
#include "train/similarity_trainer.h"

namespace hap {
namespace {

// The one training loop (src/train/train_loop.h) behind every trainer:
// the default configuration runs the deterministic runner, ticks the step
// counters, and every task honours `patience`.

HapConfig SmallModelConfig(int feature_dim) {
  HapConfig config;
  config.feature_dim = feature_dim;
  config.hidden_dim = 12;
  config.encoder_layers = 1;
  config.cluster_sizes = {4, 1};
  return config;
}

struct SmallClassification {
  std::vector<PreparedGraph> data;
  Split split;
  int feature_dim = 0;
  int num_classes = 0;
};

SmallClassification MakeSmallClassification() {
  Rng rng(3);
  GraphDataset ds = MakeMutagLike(26, &rng);
  SmallClassification c;
  c.data = PrepareDataset(ds);
  c.split = SplitIndices(static_cast<int>(c.data.size()), &rng);
  c.feature_dim = ds.feature_spec.FeatureDim();
  c.num_classes = ds.num_classes;
  return c;
}

ClassificationResult TrainSmall(const SmallClassification& c,
                                const TrainConfig& config) {
  Rng model_rng(8);
  GraphClassifier model(MakeHapModel(SmallModelConfig(c.feature_dim),
                                     &model_rng),
                        c.num_classes, 12, &model_rng);
  return TrainClassifier(&model, c.data, c.split, config);
}

TEST(TrainLoopTest, DefaultConfigTicksStepCounters) {
  const SmallClassification c = MakeSmallClassification();
  TrainConfig config;  // num_threads = 0, the default
  config.epochs = 2;
  const uint64_t train = c.split.train.size();
  const uint64_t batch = static_cast<uint64_t>(config.batch_size);
  ASSERT_NE(train % batch, 0u) << "pick a corpus with a short last batch";

  obs::Counter* batches = obs::GetCounter(obs::names::kTrainBatches);
  obs::Counter* examples = obs::GetCounter(obs::names::kTrainExamples);
  const uint64_t batches_before = batches->Value();
  const uint64_t examples_before = examples->Value();
  const ClassificationResult result = TrainSmall(c, config);
  const uint64_t epochs = result.epoch_losses.size();
  ASSERT_EQ(epochs, 2u);
  EXPECT_EQ(batches->Value() - batches_before,
            (train + batch - 1) / batch * epochs);
  EXPECT_EQ(examples->Value() - examples_before, train * epochs);
}

TEST(TrainLoopTest, ZeroThreadsIsOneThread) {
  const SmallClassification c = MakeSmallClassification();
  TrainConfig config;
  config.epochs = 3;
  config.seed = 5;
  const ClassificationResult zero = TrainSmall(c, config);
  config.num_threads = 1;
  const ClassificationResult one = TrainSmall(c, config);
  ASSERT_EQ(zero.epoch_losses.size(), one.epoch_losses.size());
  for (size_t e = 0; e < zero.epoch_losses.size(); ++e) {
    EXPECT_EQ(zero.epoch_losses[e], one.epoch_losses[e]) << "epoch " << e;
  }
  EXPECT_EQ(zero.val_accuracy, one.val_accuracy);
  EXPECT_EQ(zero.test_accuracy, one.test_accuracy);
}

struct SmallSimilarity {
  std::vector<PreparedGraph> prepared;
  std::vector<std::vector<double>> ged;
  std::vector<GraphTriplet> train;
  std::vector<GraphTriplet> test;
};

SmallSimilarity MakeSmallSimilarity() {
  Rng rng(12);
  auto pool = MakeAidsLikePool(8, &rng);
  SmallSimilarity s;
  s.ged = PairwiseGedMatrix(pool);
  s.train = MakeTriplets(s.ged, 16, &rng);
  s.test = MakeTriplets(s.ged, 8, &rng);
  s.prepared = PrepareGraphs(pool, {FeatureKind::kNodeLabelOneHot, 10, 0});
  return s;
}

TrainConfig PatientConfig() {
  TrainConfig tc;
  tc.epochs = 60;
  tc.patience = 2;
  tc.lr = 0.005f;
  return tc;
}

// Training stops `patience` epochs after the best one.
void ExpectStoppedEarly(const SimilarityTrainResult& result, int patience) {
  ASSERT_FALSE(result.epoch_losses.empty());
  EXPECT_LT(result.epoch_losses.size(), 60u);
  EXPECT_EQ(static_cast<int>(result.epoch_losses.size()),
            result.best_epoch + patience + 1);
}

TEST(TrainLoopTest, SimilarityHonoursPatience) {
  const SmallSimilarity s = MakeSmallSimilarity();
  HapConfig config;
  config.feature_dim = 10;
  config.hidden_dim = 12;
  config.cluster_sizes = {4, 1};
  Rng model_rng(6);
  EmbedderPairScorer scorer(MakeHapModel(config, &model_rng));
  const TrainConfig tc = PatientConfig();
  ExpectStoppedEarly(
      TrainSimilarity(&scorer, s.prepared, s.train, s.test, tc), tc.patience);
}

TEST(TrainLoopTest, SimGnnHonoursPatience) {
  const SmallSimilarity s = MakeSmallSimilarity();
  Rng model_rng(7);
  SimGnnModel model(10, 12, 4, &model_rng);
  const TrainConfig tc = PatientConfig();
  ExpectStoppedEarly(
      TrainSimGnn(&model, s.prepared, s.ged, s.train, s.test, tc),
      tc.patience);
}

}  // namespace
}  // namespace hap
