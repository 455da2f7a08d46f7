#include "model_trace.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "core/coarsening.h"
#include "core/gumbel.h"
#include "gnn/encoder.h"
#include "spans.h"
#include "stats.h"
#include "tensor/ops.h"
#include "train/model_zoo.h"

namespace perfbench {

ModelSplit TraceModel(const hap::GraphClassifier& model, int feature_dim,
                      int hidden, const std::vector<const hap::PreparedGraph*>& graphs,
                      int repeats) {
  using namespace hap;
  const auto* embedder =
      dynamic_cast<const HierarchicalEmbedder*>(&model.embedder());
  HAP_CHECK(embedder != nullptr) << "model split needs a hierarchical model";
  const HapConfig config = DefaultHapConfig(feature_dim, hidden);
  Rng rng(3);
  std::vector<std::unique_ptr<GnnEncoder>> encoders;
  std::vector<const CoarseningModule*> coarseners;
  for (int k = 0; k < embedder->num_levels(); ++k) {
    std::vector<int> dims(config.encoder_layers + 1, config.hidden_dim);
    dims[0] = k == 0 ? feature_dim : config.hidden_dim;
    encoders.push_back(std::make_unique<GnnEncoder>(config.encoder, dims, &rng));
    coarseners.push_back(
        dynamic_cast<const CoarseningModule*>(&embedder->coarsener(k)));
    HAP_CHECK(coarseners.back() != nullptr) << "level " << k << " is not MOA";
  }
  // Load the served encoder weights, which lead the classifier's parameter
  // list. Same values matter, not just same shapes: the coarsened
  // adjacency the second level runs on depends on them, and so does which
  // kernel GraphLevel dispatches to.
  const std::vector<Tensor> served = model.Parameters();
  size_t next = 0;
  for (const auto& encoder : encoders) {
    for (Tensor p : encoder->Parameters()) {
      const Tensor& src = served.at(next++);
      HAP_CHECK(p.rows() == src.rows() && p.cols() == src.cols());
      std::copy(src.data(), src.data() + src.size(), p.mutable_data());
    }
  }

  NoGradGuard no_grad;
  SpanLog log;
  Rng noise(11);
  for (int r = 0; r < repeats; ++r) {
    for (const PreparedGraph* g : graphs) {
      {
        ScopedSpan span(&log, "forward");
        Tensor logits = model.Logits(*g);
      }
      {
        ScopedSpan span(&log, "embed");
        std::vector<Tensor> levels = model.embedder().EmbedLevels(g->h, g->level);
      }
      Tensor features = g->h;
      GraphLevel current = g->level;
      for (size_t k = 0; k < coarseners.size(); ++k) {
        Tensor encoded;
        CoarsenResult coarse;
        {
          ScopedSpan level(&log, "level");
          {
            ScopedSpan span(&log, "encoder");
            encoded = encoders[k]->Forward(features, current);
          }
          {
            ScopedSpan span(&log, "coarsen");
            coarse = coarseners[k]->Forward(encoded, current);
          }
          Tensor readout = ReduceMeanRows(coarse.h);
        }
        Tensor c;
        {
          ScopedSpan span(&log, "gcont");
          c = coarseners[k]->ComputeGCont(encoded);
        }
        {
          ScopedSpan span(&log, "moa");
          Tensor m = coarseners[k]->ComputeAttention(c);
        }
        if (coarseners[k]->config().use_gumbel && coarse.adjacency.defined()) {
          ScopedSpan span(&log, "gumbel");
          Tensor a = GumbelSoftSample(coarse.adjacency, config.tau, &noise,
                                      /*training=*/false);
        }
        features = coarse.h;
        current = coarse.level;
      }
    }
  }

  const auto totals = log.Summarize();
  auto total_us = [&totals](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns) / 1e3;
  };
  auto self_us = [&totals](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns) / 1e3;
  };
  const double n = static_cast<double>(graphs.size()) * repeats;
  ModelSplit split;
  if (n == 0) return split;
  split.forward_us = total_us("forward") / n;
  split.encoder_us = total_us("encoder") / n;
  split.gcont_us = total_us("gcont") / n;
  split.moa_us = total_us("moa") / n;
  split.gumbel_us = total_us("gumbel") / n;
  split.coarsen_us =
      (total_us("coarsen") - total_us("gcont") - total_us("moa") -
       total_us("gumbel")) / n;
  // The head is what Logits adds on top of EmbedLevels; the level-mean
  // readouts are the level spans' self time.
  split.readout_head_us =
      (total_us("forward") - total_us("embed") + self_us("level")) / n;
  split.residual_frac = ReconciliationResidual(
      split.forward_us,
      {split.encoder_us, split.gcont_us, split.moa_us, split.coarsen_us,
       split.gumbel_us, split.readout_head_us});
  return split;
}

void AddModelMetrics(const ModelSplit& split, Report* report) {
  report->Set("model.forward_us_mean", split.forward_us, "us");
  report->Set("model.encoder_us_mean", split.encoder_us, "us");
  report->Set("model.gcont_us_mean", split.gcont_us, "us");
  report->Set("model.moa_us_mean", split.moa_us, "us");
  report->Set("model.coarsen_us_mean", split.coarsen_us, "us");
  report->Set("model.gumbel_us_mean", split.gumbel_us, "us");
  report->Set("model.readout_head_us_mean", split.readout_head_us, "us");
  report->Set("model.residual_frac", split.residual_frac, "ratio");
}

}  // namespace perfbench
