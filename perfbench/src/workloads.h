// The workloads (README.md): open-loop serving over the binary wire
// protocol and closed-loop training.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "report.h"

namespace perfbench {

/// serve_small_hot.
Report RunServeWorkload(const RunOptions& options);

/// train_hap.
Report RunTrainWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
