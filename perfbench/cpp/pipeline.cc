#include "pipeline.h"

#include <algorithm>
#include <utility>

#include "data/event_stream.h"
#include "distill/export.h"
#include "distill/trainer.h"
#include "serve/two_tier.h"
#include "srmodels/factory.h"
#include "util/check.h"
#include "util/timer.h"

namespace perfbench {

using namespace delrec;

namespace {

// Mixes the command-line seed into a preset's own seed, so every seed gives
// a different catalog of the preset's size and shape.
uint64_t MixSeed(uint64_t preset_seed, uint64_t seed) {
  uint64_t z = preset_seed + 0x9e3779b97f4a7c15ULL * (seed + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr int64_t kSplitHistory = 10;
constexpr int64_t kStudentHistory = 8;

}  // namespace

bool MakeWorkloadShape(const std::string& name, uint64_t seed,
                       WorkloadShape* shape) {
  WorkloadShape s;
  s.name = name;
  if (name == "paper_prompt") {
    // DELRec defaults: history 10, 16 soft prompts, SR top-h hints in the
    // prompt, 15-item candidate pools; fp32 teacher, hot-swapped.
    s.dataset = data::MovieLens100KConfig();
    s.delrec.stage1_max_examples = 48;
    s.delrec.stage1_epochs = 1;
    s.delrec.stage2_max_examples = 96;
    s.delrec.stage2_epochs = 1;
    s.hot_swap = true;
  } else if (name == "long_head_two_tier") {
    // The largest catalog preset behind a prefix-heavy prompt, int8, served
    // two-tier over the whole catalog.
    s.dataset = data::HomeKitchenConfig();
    s.delrec.icl_alpha = 6;  // Paper §V-A3 for Home & Kitchen.
    s.delrec.soft_prompt_count = 48;
    s.delrec.history_length = 1;
    s.delrec.sr_hints_in_stage2 = false;
    s.delrec.stage1_max_examples = 48;
    s.delrec.stage1_epochs = 1;
    s.delrec.stage2_max_examples = 96;
    s.delrec.stage2_epochs = 1;
    s.quantize_int8 = true;
    s.two_tier = true;
    s.request_candidates = false;
  } else {
    return false;
  }
  s.dataset.seed = MixSeed(s.dataset.seed, seed);
  *shape = std::move(s);
  return true;
}

Catalog GenerateCatalog(const WorkloadShape& shape) {
  Catalog catalog;
  core::Workbench::Options options;
  options.history_length = kSplitHistory;
  options.pretrain_epochs = 1;
  catalog.workbench = std::make_unique<core::Workbench>(shape.dataset, options);
  return catalog;
}

serve::EngineSnapshot::Sources SourcesFor(const Catalog& catalog,
                                          const Trained& trained) {
  serve::EngineSnapshot::Sources sources;
  sources.catalog = &catalog.workbench->dataset().catalog;
  sources.vocab = &catalog.workbench->vocab();
  sources.sr_model = trained.backbone.get();
  return sources;
}

Trained TrainAndFreeze(const WorkloadShape& shape, const Catalog& catalog) {
  core::Workbench& workbench = *catalog.workbench;
  const std::vector<data::Example>& train = workbench.splits().train;
  Trained trained;

  util::WallTimer timer;
  trained.backbone = srmodels::MakeBackbone(
      srmodels::Backbone::kSasRec, workbench.num_items(), kSplitHistory,
      /*seed=*/5);
  srmodels::TrainConfig sr_config =
      srmodels::BackboneTrainConfig(srmodels::Backbone::kSasRec);
  sr_config.epochs = 1;
  const util::Status sr_trained = trained.backbone->Train(train, sr_config);
  DELREC_CHECK(sr_trained.ok()) << sr_trained.ToString();
  trained.times.backbone_s = timer.ElapsedSeconds();

  timer.Restart();
  std::unique_ptr<llm::TinyLm> llm =
      workbench.MakePretrainedLlm(core::LlmSize::kXL);
  trained.times.pretrain_s = timer.ElapsedSeconds();

  core::DelRec model(&workbench.dataset().catalog, &workbench.vocab(),
                     llm.get(), trained.backbone.get(), shape.delrec);
  timer.Restart();
  const util::Status distilled = model.DistillPattern(train);
  DELREC_CHECK(distilled.ok()) << distilled.ToString();
  trained.times.stage1_s = timer.ElapsedSeconds();
  timer.Restart();
  const util::Status tuned = model.FineTune(train);
  DELREC_CHECK(tuned.ok()) << tuned.ToString();
  trained.times.stage2_s = timer.ElapsedSeconds();
  const int64_t train_size = static_cast<int64_t>(train.size());
  trained.times.stage1_examples =
      std::min(shape.delrec.stage1_max_examples, train_size) *
      shape.delrec.stage1_epochs;
  trained.times.stage2_examples =
      std::min(shape.delrec.stage2_max_examples, train_size) *
      shape.delrec.stage2_epochs;

  timer.Restart();
  trained.blobs = core::ExtractDelRecBlobs(model, *llm);
  trained.llm_config = llm->config();
  trained.config = model.config();
  trained.build_options.quantize_int8 = shape.quantize_int8;
  const serve::EngineSnapshot::Sources sources = SourcesFor(catalog, trained);
  auto teacher = serve::EngineSnapshot::FromBlobs(
      trained.blobs, trained.llm_config, trained.config, sources,
      trained.build_options);
  DELREC_CHECK(teacher.ok()) << teacher.status().ToString();
  trained.snapshot = std::move(teacher.value());
  trained.times.snapshot_s = timer.ElapsedSeconds();
  if (!shape.two_tier) {
    trained.served = trained.snapshot;
    return trained;
  }

  // Two-tier: export the frozen teacher's top-k lists, distill a GRU4Rec
  // student on them, embed its blob and rebuild the snapshot around both.
  timer.Restart();
  distill::TeacherExportOptions export_options;
  export_options.top_k = 4;
  export_options.candidate_pool = 20;
  export_options.history_length = kStudentHistory;
  export_options.batch_size = 16;
  data::EventStream stream(workbench.dataset());
  auto exported = distill::ExportTeacherLists(
      *trained.snapshot, stream, workbench.num_items(), export_options);
  DELREC_CHECK(exported.ok()) << exported.status().ToString();
  trained.times.export_s = timer.ElapsedSeconds();

  timer.Restart();
  srmodels::StudentSpec spec;
  spec.backbone = srmodels::Backbone::kGru4Rec;
  spec.num_items = workbench.num_items();
  spec.history_length = kStudentHistory;
  spec.seed = 23;
  auto student = srmodels::MakeBackbone(spec.backbone, spec.num_items,
                                        spec.history_length, spec.seed);
  distill::DistillTrainConfig student_config;
  student_config.base = srmodels::BackboneTrainConfig(spec.backbone);
  student_config.base.epochs = 1;
  student_config.base.history_length = spec.history_length;
  auto distilled_student =
      distill::DistillStudent(*student, exported.value(), student_config);
  DELREC_CHECK(distilled_student.ok())
      << distilled_student.status().ToString();
  trained.blobs.student_blob = srmodels::SerializeStudent(spec, *student);
  trained.times.student_s = timer.ElapsedSeconds();

  timer.Restart();
  trained.served = RebuildServed(shape, catalog, trained, &trained.snapshot);
  trained.times.snapshot_s += timer.ElapsedSeconds();
  return trained;
}

std::shared_ptr<const serve::Scorer> RebuildServed(
    const WorkloadShape& shape, const Catalog& catalog,
    const Trained& trained,
    std::shared_ptr<const serve::EngineSnapshot>* snapshot_out) {
  auto built = serve::EngineSnapshot::FromBlobs(
      trained.blobs, trained.llm_config, trained.config,
      SourcesFor(catalog, trained), trained.build_options);
  DELREC_CHECK(built.ok()) << built.status().ToString();
  std::shared_ptr<const serve::EngineSnapshot> snapshot(
      std::move(built.value()));
  if (snapshot_out != nullptr) *snapshot_out = snapshot;
  if (!shape.two_tier) return snapshot;
  serve::TwoTierOptions options;
  options.rerank_top_h = kRerankTopH;
  auto composed = serve::MakeSnapshotTwoTier(snapshot, options);
  DELREC_CHECK(composed.ok()) << composed.status().ToString();
  return composed.value();
}

}  // namespace perfbench
