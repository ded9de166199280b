// Workload definitions and the catalog -> servable-snapshot pipeline.
//
// Every stage is timed from outside, around the public entry point that
// runs it, so the per-stage times add up to the pipeline's wall time.
#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/delrec.h"
#include "core/workbench.h"
#include "data/dataset.h"
#include "llm/tiny_lm.h"
#include "serve/scorer.h"
#include "serve/snapshot.h"
#include "srmodels/recommender.h"

namespace perfbench {

/// Candidates the two-tier teacher re-ranks per request.
constexpr int64_t kRerankTopH = 8;

/// One workload's system shape. Everything here is fixed per workload name;
/// only the dataset seed comes from the command line.
struct WorkloadShape {
  std::string name;
  delrec::data::GeneratorConfig dataset;
  delrec::core::DelRecConfig delrec;
  bool quantize_int8 = false;
  /// Distill a GRU4Rec student and serve MakeSnapshotTwoTier at
  /// kRerankTopH.
  bool two_tier = false;
  /// Requests carry a 15-item candidate pool; false = the full catalog.
  bool request_candidates = true;
  /// Rebuild the snapshot from its blobs and hot-swap it about once a second.
  bool hot_swap = false;
};

/// Returns false for an unknown workload name.
bool MakeWorkloadShape(const std::string& name, uint64_t seed,
                       WorkloadShape* shape);

/// Wall time of each pipeline stage, seconds.
struct StageTimes {
  double backbone_s = 0.0;
  double pretrain_s = 0.0;
  double stage1_s = 0.0;
  double stage2_s = 0.0;
  double snapshot_s = 0.0;
  double export_s = 0.0;
  double student_s = 0.0;
  int64_t stage1_examples = 0;  // Examples processed, summed over epochs.
  int64_t stage2_examples = 0;
};

/// The generated dataset: owns what every snapshot borrows.
struct Catalog {
  std::unique_ptr<delrec::core::Workbench> workbench;
};

Catalog GenerateCatalog(const WorkloadShape& shape);

/// The trained, frozen system, ready to serve.
struct Trained {
  std::unique_ptr<delrec::srmodels::SequentialRecommender> backbone;
  delrec::core::DelRecBlobs blobs;
  delrec::llm::TinyLmConfig llm_config;
  delrec::core::DelRecConfig config;
  delrec::serve::EngineSnapshot::BuildOptions build_options;
  std::shared_ptr<const delrec::serve::EngineSnapshot> snapshot;
  /// What the server publishes: the snapshot itself or its two-tier form.
  std::shared_ptr<const delrec::serve::Scorer> served;
  StageTimes times;
};

/// Runs catalog -> backbone -> LLM pretrain -> stage 1 -> stage 2 ->
/// snapshot [-> teacher export -> student distillation -> rebuilt snapshot].
/// CHECK-fails on any stage error: a workload on which training fails is a
/// broken benchmark, not a measurement.
Trained TrainAndFreeze(const WorkloadShape& shape, const Catalog& catalog);

/// Rebuilds the served scorer from the checkpoint blobs (the hot-swap
/// write path): EngineSnapshot::FromBlobs, plus the two-tier wrapper when
/// the workload serves one.
std::shared_ptr<const delrec::serve::Scorer> RebuildServed(
    const WorkloadShape& shape, const Catalog& catalog,
    const Trained& trained,
    std::shared_ptr<const delrec::serve::EngineSnapshot>* snapshot_out);

delrec::serve::EngineSnapshot::Sources SourcesFor(const Catalog& catalog,
                                                  const Trained& trained);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
