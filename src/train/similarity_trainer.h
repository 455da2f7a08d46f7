#ifndef HAP_TRAIN_SIMILARITY_TRAINER_H_
#define HAP_TRAIN_SIMILARITY_TRAINER_H_

#include <functional>
#include <vector>

#include "graph/datasets.h"
#include "matching/simgnn.h"
#include "train/classifier.h"
#include "train/pair_scorer.h"

namespace hap {

/// A graph-similarity triplet ⟨G_a, G_b, G_c⟩ with its ground-truth
/// relative proximity r = GED(a,b) − GED(a,c) (Eq. 10): r < 0 means G_a is
/// closer to G_b.
struct GraphTriplet {
  int a = 0;
  int b = 0;
  int c = 0;
  double relative_ged = 0.0;
};

/// All-pairs GED over a pool using exact A* (Eq. 8). Pools are built with
/// ≤ 10-node graphs so this matches the paper's exact-ground-truth
/// protocol.
std::vector<std::vector<double>> PairwiseGedMatrix(
    const std::vector<Graph>& pool, int64_t max_expansions = 500'000);

/// All-pairs approximate GED using `approx` (Beam / bipartite baselines).
std::vector<std::vector<double>> PairwiseApproxGedMatrix(
    const std::vector<Graph>& pool,
    const std::function<double(const Graph&, const Graph&)>& approx);

/// Samples `count` triplets with distinct b ≠ c and nonzero relative GED
/// (Eq. 9-10).
std::vector<GraphTriplet> MakeTriplets(
    const std::vector<std::vector<double>>& ged, int count, Rng* rng);

/// Fraction of triplets whose relative order an approximate GED matrix
/// ranks the same way as the exact one — the accuracy metric of Fig. 5 for
/// the conventional algorithms.
double TripletAccuracyFromMatrix(
    const std::vector<GraphTriplet>& triplets,
    const std::vector<std::vector<double>>& approx_ged);

/// Hierarchical triplet MSE (Eq. 24) for an embedding-distance model.
/// With `final_level_only` only the coarsest level's distances contribute.
Tensor TripletLoss(PairScorer* scorer, const std::vector<PreparedGraph>& pool,
                   const GraphTriplet& triplet,
                   bool final_level_only = false);

/// Fraction of triplets ranked correctly by the scorer's final-level
/// distance.
double EvaluateTripletScorer(const PairScorer& scorer,
                             const std::vector<PreparedGraph>& pool,
                             const std::vector<GraphTriplet>& triplets);

struct SimilarityTrainResult {
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
  int best_epoch = 0;
  /// Mean training loss per epoch, in epoch order.
  std::vector<double> epoch_losses;
};

/// Trains an embedding model on training triplets with Eq. 24 and reports
/// triplet ordering accuracy. The best epoch (and early stopping) follows
/// the training-triplet accuracy.
SimilarityTrainResult TrainSimilarity(
    PairScorer* scorer, const std::vector<PreparedGraph>& pool,
    const std::vector<GraphTriplet>& train_triplets,
    const std::vector<GraphTriplet>& test_triplets, const TrainConfig& config);

/// Data-parallel variant: config.num_threads > 1 requires `replica_factory`
/// (ScorerFactory from matching_trainer.h; the master scorer is replica 0).
/// Workers share the featurised pool read-only. Deterministic for any
/// thread count.
SimilarityTrainResult TrainSimilarity(
    PairScorer* scorer, const std::vector<PreparedGraph>& pool,
    const std::vector<GraphTriplet>& train_triplets,
    const std::vector<GraphTriplet>& test_triplets, const TrainConfig& config,
    const std::function<std::unique_ptr<PairScorer>()>& replica_factory);

/// Trains SimGNN on *pair* similarities exp(-GED(a,b)/mean_ged) with MSE
/// (its original absolute-similarity objective), then evaluates it on the
/// triplets by comparing predicted similarities. Each epoch draws
/// max(32, 2·|train_triplets|) pairs with replacement; training runs on
/// one worker whatever config.num_threads says (same trajectory).
SimilarityTrainResult TrainSimGnn(
    SimGnnModel* model, const std::vector<PreparedGraph>& pool,
    const std::vector<std::vector<double>>& exact_ged,
    const std::vector<GraphTriplet>& train_triplets,
    const std::vector<GraphTriplet>& test_triplets, const TrainConfig& config);

}  // namespace hap

#endif  // HAP_TRAIN_SIMILARITY_TRAINER_H_
