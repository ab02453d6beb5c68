#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "report.h"

namespace perfbench {

/// `train-ntu` (zoo DHGCN on NTU-like data) and `train-kinetics-stgcn`
/// (ST-GCN on Kinetics-like data): setup, Trainer over a fixed
/// schedule, then Evaluate passes with the fused fp32 plan.
RunResult RunTrainWorkload(const Args& args);

/// `serve-ntu`: the zoo DHGCN behind InferenceServer, driven in three
/// phases (steady open loop, closed loop, overload open loop).
RunResult RunServeWorkload(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
