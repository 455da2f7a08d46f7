#ifndef HAP_TRAIN_PAIR_SCORER_H_
#define HAP_TRAIN_PAIR_SCORER_H_

#include <memory>
#include <vector>

#include "core/embedder.h"
#include "matching/gmn.h"
#include "train/prepared.h"

namespace hap {

/// Produces hierarchical distances between a graph pair — the quantity the
/// matching loss (Eq. 22-23) and the triplet similarity loss (Eq. 24) both
/// consume. Implementations: independent embedding via any GraphEmbedder
/// (HAP and the HAP-x ablations), or GMN's joint pair embedding.
class PairScorer : public Module {
 public:
  ~PairScorer() override = default;

  /// One (1,1) Euclidean distance per hierarchy level, coarsest last.
  virtual std::vector<Tensor> PairDistances(const PreparedGraph& a,
                                            const PreparedGraph& b) const = 0;
};

/// Embeds each side independently with a shared GraphEmbedder and measures
/// level-wise Euclidean distances (HAP's hierarchical similarity measure,
/// Sec. 4.5.2).
class EmbedderPairScorer : public PairScorer {
 public:
  explicit EmbedderPairScorer(std::unique_ptr<GraphEmbedder> embedder);

  std::vector<Tensor> PairDistances(const PreparedGraph& a,
                                    const PreparedGraph& b) const override;
  void CollectParameters(std::vector<Tensor>* out) const override;
  void set_training(bool training) override;
  void ReseedNoise(uint64_t seed) override;

  const GraphEmbedder& embedder() const { return *embedder_; }

 private:
  std::unique_ptr<GraphEmbedder> embedder_;
};

/// GMN joint scoring: a single distance level from the cross-attentive
/// pair embedding.
class GmnPairScorer : public PairScorer {
 public:
  GmnPairScorer(const GmnConfig& config, GmnModel::Pooling pooling, Rng* rng);

  std::vector<Tensor> PairDistances(const PreparedGraph& a,
                                    const PreparedGraph& b) const override;
  void CollectParameters(std::vector<Tensor>* out) const override;
  void set_training(bool training) override;

 private:
  GmnModel gmn_;
};

}  // namespace hap

#endif  // HAP_TRAIN_PAIR_SCORER_H_
