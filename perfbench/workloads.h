#ifndef MGBR_PERFBENCH_WORKLOADS_H_
#define MGBR_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/mgbr.h"
#include "data/sampler.h"
#include "eval/metrics.h"
#include "serve/model_pool.h"
#include "serve/server.h"
#include "train/trainer.h"

namespace mgbr::perfbench {

/// Evaluator reports of one sampled-protocol pass that the correctness
/// pass recomputes from raw per-instance scores.
struct SampledReports {
  RankingReport a10;   // Task A @10, unseen protocol
  RankingReport b10;   // Task B @10, unseen protocol
  RankingReport b100;  // Task B @100, unseen protocol
};

/// Everything one workload's rounds need. Built by MakeWorkload, which
/// is the timed set-up: data, graphs, models, checkpoints written, first
/// install and server start.
struct Workload {
  // Data owners, declared first so they outlive the models, trainer and
  // server that point into them.
  std::unique_ptr<bench::ExperimentHarness> harness;
  std::shared_ptr<void> scale_data;
  std::unique_ptr<MgbrConfig> owned_mgbr_config;

  std::string name;
  int64_t n_users = 0;
  int64_t n_items = 0;
  /// Set for MGBR workloads (drives the computed MTL FLOP/byte counts).
  const MgbrConfig* mgbr_config = nullptr;

  // Training and evaluation: one model, trained across rounds.
  std::unique_ptr<RecModel> train_model;
  /// The train groups split into equal shards, one trainer each; round r
  /// runs one epoch of shard r % size(), so an epoch over all the train
  /// data is one epoch of every shard.
  std::vector<std::unique_ptr<GroupBuyingDataset>> shard_data;
  std::vector<std::unique_ptr<TrainingSampler>> shard_samplers;
  std::vector<std::unique_ptr<Trainer>> trainers;
  /// Sampler over all the train data (negative-sampler probe).
  const TrainingSampler* sampler = nullptr;
  const GroupBuyingDataset* train_data = nullptr;
  /// One sampled-protocol pass (A and B x @10/@100 x unseen/seen).
  std::function<SampledReports(RecModel*)> eval_sampled;
  /// Instances behind SampledReports::a10 / b100 (for the recompute).
  const std::vector<EvalInstanceA>* eval_a10 = nullptr;
  const std::vector<EvalInstanceB>* eval_b100 = nullptr;
  /// One full-ranking Task A pass ranks these.
  std::vector<EvalInstanceA> full_instances;
  const InteractionIndex* full_index = nullptr;
  /// Learnable data: the loss must fall and MRR@10 beat random.
  bool expect_learning = false;

  // Serving.
  serve::ModelPool::Factory factory;
  std::unique_ptr<serve::ModelPool> pool;
  std::unique_ptr<serve::Server> server;
  /// Version v serves checkpoints[(v - 1) % size()]; version 1 is the
  /// first install, every round publishes the next one.
  std::vector<std::string> checkpoints;
  std::string work_dir;
  std::function<serve::Request()> next_request;
  int in_flight = 1;
  /// Each serving window resolves at least this many requests and
  /// makes one hot swap beside them; a round runs `windows_per_round`.
  int64_t min_requests = 1;
  int windows_per_round = 1;
  int64_t k = 10;
  /// > 0 on the int8 two-stage workload: mean top-k overlap floor
  /// against exact fp32 brute force.
  double overlap_floor = 0.0;
  /// Responses per task kind (and per checkpoint) given the deep
  /// score check.
  int deep_per_task = 1;

  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// Stops the server and removes the checkpoint files.
  ~Workload();
};

/// Builds workload `name` with inputs drawn from `seed`; checkpoint
/// files go under `out_dir`. Returns null and sets `*error` on failure.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& out_dir,
                                       std::string* error);

}  // namespace mgbr::perfbench

#endif  // MGBR_PERFBENCH_WORKLOADS_H_
