// Model-layer split of one HAP forward, measured by replaying the
// workload's own graphs through the model's public functions under spans:
// GraphClassifier::Logits (the whole forward), GraphEmbedder::EmbedLevels,
// and per level GnnEncoder::Forward, CoarseningModule::Forward,
// ComputeGCont, ComputeAttention (MOA) and GumbelSoftSample. Coarseners
// are the served ones (HierarchicalEmbedder::coarsener); encoders are not
// exposed, so same-shape modules loaded with the served encoder weights
// stand in for them.
#ifndef PERFBENCH_MODEL_TRACE_H_
#define PERFBENCH_MODEL_TRACE_H_

#include <vector>

#include "report.h"
#include "train/classifier.h"
#include "train/prepared.h"

namespace perfbench {

struct ModelSplit {
  double forward_us = 0.0;       // GraphClassifier::Logits
  double encoder_us = 0.0;       // every level's encoder
  double gcont_us = 0.0;         // C = H T
  double moa_us = 0.0;           // attention scores -> assignment M
  double coarsen_us = 0.0;       // Forward minus gcont, MOA and Gumbel
  double gumbel_us = 0.0;        // soft sampling of A'
  double readout_head_us = 0.0;  // level readouts + head
  double residual_frac = 0.0;    // 1 - sum(parts) / forward
};

/// Per-graph means over `repeats` passes of `graphs`. `model` must be a
/// HAP classifier (hierarchical embedder of CoarseningModules) in eval
/// mode; `feature_dim` and `hidden` are its architecture.
ModelSplit TraceModel(const hap::GraphClassifier& model, int feature_dim,
                      int hidden, const std::vector<const hap::PreparedGraph*>& graphs,
                      int repeats);

/// Reports `split` as the model.* per-layer metrics.
void AddModelMetrics(const ModelSplit& split, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_TRACE_H_
