#include "perfbench/workloads.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "common/trace.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "models/gbgcn.h"
#include "models/graph_inputs.h"

namespace mgbr::perfbench {
namespace {

// The paper's Beibei catalogue (PAPER.md §2). Users are fewer than
// Beibei's 125,012 so one Task B full-catalogue score stays under a
// second single-threaded.
constexpr int64_t kScaleItems = 30516;
constexpr int64_t kScaleUsers = 20000;
// Deal groups of the uniform log. Serving cost does not depend on it;
// every training step refreshes and back-propagates the GCN over all
// 50k nodes, so the log and batch are sized for a one-step epoch.
constexpr int64_t kScaleGroups = 1000;
constexpr size_t kScaleBatch = 1024;
// Evaluation instances per protocol/cutoff at catalogue scale.
constexpr size_t kScaleEvalCap = 50;
// Pre-written checkpoints each workload cycles through.
constexpr int kCheckpoints = 3;

/// Uniform deal log at the paper's catalogue size: initiator and item
/// uniform, 0-3 uniform participants (the same generator bench_retrieval
/// and bench_quant use, so every item exists in the catalogue).
GroupBuyingDataset UniformDealLog(uint64_t seed) {
  Rng rng(seed);
  std::vector<DealGroup> groups;
  groups.reserve(static_cast<size_t>(kScaleGroups));
  for (int64_t g = 0; g < kScaleGroups; ++g) {
    DealGroup group;
    group.initiator = static_cast<int64_t>(rng.UniformInt(kScaleUsers));
    group.item = static_cast<int64_t>(rng.UniformInt(kScaleItems));
    const int n_parts = static_cast<int>(rng.UniformInt(4));
    for (int p = 0; p < n_parts; ++p) {
      const int64_t cand = static_cast<int64_t>(rng.UniformInt(kScaleUsers));
      if (cand != group.initiator) group.participants.push_back(cand);
    }
    groups.push_back(std::move(group));
  }
  return GroupBuyingDataset(kScaleUsers, kScaleItems, std::move(groups));
}

/// Catalogue-scale data shared by both 30k workloads.
struct ScaleData {
  GroupBuyingDataset data;
  DatasetSplit split;
  std::unique_ptr<InteractionIndex> full_index;
  std::unique_ptr<InteractionIndex> train_index;
  std::unique_ptr<TrainingSampler> sampler;
  GraphInputs graphs;
  // {unseen, seen} x {@10, @100} x {A, B}, like the harness.
  std::vector<EvalInstanceA> a10, a100, a10_seen, a100_seen;
  std::vector<EvalInstanceB> b10, b100, b10_seen, b100_seen;

  explicit ScaleData(uint64_t seed) : data(UniformDealLog(seed)) {
    Rng split_rng(seed + 1);
    split = data.SplitByRatio(7, 3, 1, &split_rng);
    full_index = std::make_unique<InteractionIndex>(data);
    train_index = std::make_unique<InteractionIndex>(split.train);
    sampler = std::make_unique<TrainingSampler>(split.train, full_index.get());
    graphs = BuildGraphInputs(split.train);
    std::vector<DealGroup> held = split.validation.groups();
    held.insert(held.end(), split.test.groups().begin(),
                split.test.groups().end());
    const GroupBuyingDataset heldout(data.n_users(), data.n_items(),
                                     std::move(held));
    Rng erng(seed + 2);
    const size_t cap = kScaleEvalCap;
    a10 = BuildEvalInstancesA(heldout, *full_index, 9, &erng, cap,
                              train_index.get());
    a100 = BuildEvalInstancesA(heldout, *full_index, 99, &erng, cap,
                               train_index.get());
    b10 = BuildEvalInstancesB(heldout, *full_index, 9, &erng, cap,
                              train_index.get());
    b100 = BuildEvalInstancesB(heldout, *full_index, 99, &erng, cap,
                               train_index.get());
    a10_seen = BuildEvalInstancesA(heldout, *full_index, 9, &erng, cap);
    a100_seen = BuildEvalInstancesA(heldout, *full_index, 99, &erng, cap);
    b10_seen = BuildEvalInstancesB(heldout, *full_index, 9, &erng, cap);
    b100_seen = BuildEvalInstancesB(heldout, *full_index, 99, &erng, cap);
  }

  /// The same eight evaluator calls ExperimentHarness::EvaluateOnly
  /// makes, through the batched no-grad scorers.
  SampledReports Evaluate(RecModel* model) const {
    model->Refresh();
    // Wrapped so a traced run can split scorer time from ranking time.
    const BatchTaskAScorer inner_a = model->MakeBatchTaskAScorer();
    const BatchTaskBScorer inner_b = model->MakeBatchTaskBScorer();
    const BatchTaskAScorer sa = [&inner_a](const std::vector<int64_t>& u,
                                           const std::vector<int64_t>& i) {
      TraceSpan span("bench.score_batch", "bench");
      return inner_a(u, i);
    };
    const BatchTaskBScorer sb = [&inner_b](const std::vector<int64_t>& u,
                                           const std::vector<int64_t>& i,
                                           const std::vector<int64_t>& p) {
      TraceSpan span("bench.score_batch", "bench");
      return inner_b(u, i, p);
    };
    SampledReports out;
    out.a10 = EvaluateTaskA(a10, sa, 10);
    EvaluateTaskA(a100, sa, 100);
    out.b10 = EvaluateTaskB(b10, sb, 10);
    out.b100 = EvaluateTaskB(b100, sb, 100);
    EvaluateTaskA(a10_seen, sa, 10);
    EvaluateTaskA(a100_seen, sa, 100);
    EvaluateTaskB(b10_seen, sb, 10);
    EvaluateTaskB(b100_seen, sb, 100);
    return out;
  }
};

/// Splits the train groups round-robin into `n` equal shards, each with
/// its own sampler and trainer over `w->train_model`.
void ShardTrainers(Workload* w, const InteractionIndex* full_index, int n,
                   const TrainConfig& config) {
  std::vector<std::vector<DealGroup>> parts(static_cast<size_t>(n));
  const std::vector<DealGroup>& groups = w->train_data->groups();
  for (size_t g = 0; g < groups.size(); ++g) {
    parts[g % static_cast<size_t>(n)].push_back(groups[g]);
  }
  for (int j = 0; j < n; ++j) {
    w->shard_data.push_back(std::make_unique<GroupBuyingDataset>(
        w->train_data->n_users(), w->train_data->n_items(),
        std::move(parts[static_cast<size_t>(j)])));
    w->shard_samplers.push_back(std::make_unique<TrainingSampler>(
        *w->shard_data.back(), full_index));
    TrainConfig tc = config;
    tc.seed = config.seed + static_cast<uint64_t>(j);
    w->trainers.push_back(std::make_unique<Trainer>(
        w->train_model.get(), w->shard_samplers.back().get(), tc));
  }
}

/// Ids 0..n-1 drawn by the simulator's shuffled Zipf law
/// (docs/beibei_sim.md, step 4): the id at rank r has weight (r+1)^-s,
/// and ranks are assigned to ids by a seeded shuffle.
class ZipfIds {
 public:
  ZipfIds(int64_t n, double s, Rng* rng) : ids_(static_cast<size_t>(n)) {
    double total = 0.0;
    cdf_.reserve(static_cast<size_t>(n));
    for (int64_t r = 0; r < n; ++r) {
      ids_[static_cast<size_t>(r)] = r;
      total += std::pow(static_cast<double>(r + 1), -s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    rng->Shuffle(&ids_);
  }

  int64_t Draw(Rng* rng) const {
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), rng->Uniform()) -
        cdf_.begin());
    return ids_[std::min(rank, ids_.size() - 1)];
  }

 private:
  std::vector<int64_t> ids_;
  std::vector<double> cdf_;
};

/// Request stream of deals: each deal (initiator, item) from `draw`
/// gives one Task A query (the items `initiator` would launch) followed
/// by one Task B query (who would join the initiator's group on `item`).
std::function<serve::Request()> DealRequests(
    std::function<std::pair<int64_t, int64_t>()> draw) {
  auto deal = std::make_shared<std::pair<int64_t, int64_t>>();
  auto count = std::make_shared<int64_t>(0);
  return [draw = std::move(draw), deal, count]() {
    serve::Request r;
    if ((*count)++ % 2 == 0) {
      *deal = draw();
      r.task = serve::TaskKind::kTopKItems;
    } else {
      r.task = serve::TaskKind::kTopKParticipants;
    }
    r.user = deal->first;
    r.item = deal->second;
    return r;
  };
}

/// Writes `kCheckpoints` parameter sets (models built by `make` with
/// consecutive seeds), installs the first and starts the server.
bool StartServing(Workload* w, uint64_t first_seed,
                  const std::function<std::unique_ptr<RecModel>(uint64_t)>&
                      make,
                  const serve::ServerConfig& config, std::string* error) {
  for (int j = 0; j < kCheckpoints; ++j) {
    const std::unique_ptr<RecModel> m = make(first_seed + j);
    const std::string path =
        w->work_dir + "/ckpt" + std::to_string(j) + ".mgbr";
    const Status s = SaveParameters(m->Parameters(), path);
    if (!s.ok()) {
      *error = "writing " + path + ": " + s.ToString();
      return false;
    }
    w->checkpoints.push_back(path);
  }
  w->pool = std::make_unique<serve::ModelPool>(w->factory);
  const Status s = w->pool->LoadVersion(w->checkpoints[0]);
  if (!s.ok()) {
    *error = "first install: " + s.ToString();
    return false;
  }
  w->server = std::make_unique<serve::Server>(w->pool.get(), config);
  return true;
}

// Shards of the harness train data: one shard epoch (~0.9 s) per round
// keeps rounds short, so a run holds a dozen or more of each operation.
constexpr int kHarnessShards = 4;
// Evaluation instances per protocol/cutoff (the harness default is 400):
// one sampled pass then costs about as much as one shard epoch.
constexpr size_t kHarnessEvalCap = 100;

std::unique_ptr<Workload> MakeTrainHarness(uint64_t seed,
                                           std::unique_ptr<Workload> w,
                                           std::string* error) {
  // The calibrated harness data set and split (EXPERIMENTS.md), so every
  // seed trains and ranks the same number of rows; the seed drives the
  // evaluation draws, the model inits, the sampler and the requests.
  // FromEnv honours MGBR_BENCH_FAST; the benchmark always measures the
  // calibrated size.
  ::unsetenv("MGBR_BENCH_FAST");
  bench::HarnessConfig hc = bench::HarnessConfig::FromEnv();
  hc.eval_cap = kHarnessEvalCap;
  hc.eval_seed = seed + 2;
  hc.mgbr_train.seed = seed + 20;  // shards train from seed+20..23
  w->harness = std::make_unique<bench::ExperimentHarness>(hc);
  bench::ExperimentHarness* h = w->harness.get();
  w->owned_mgbr_config = std::make_unique<MgbrConfig>(h->MgbrBenchConfig());
  w->mgbr_config = w->owned_mgbr_config.get();
  w->n_users = h->n_users();
  w->n_items = h->n_items();

  w->train_model = h->MakeMgbr(*w->mgbr_config, seed + 3);
  w->sampler = &h->sampler();
  w->train_data = &h->train_data();
  ShardTrainers(w.get(), &h->full_index(), kHarnessShards,
                h->config().mgbr_train);
  w->eval_sampled = [h](RecModel* model) {
    const bench::RunResult r = h->EvaluateOnly(model);
    SampledReports out;
    out.a10.mrr = r.task_a.mrr10;
    out.a10.ndcg = r.task_a.ndcg10;
    out.a10.cutoff = 10;
    out.a10.n_instances = h->eval_a10().size();
    out.b10.mrr = r.task_b.mrr10;
    out.b10.ndcg = r.task_b.ndcg10;
    out.b10.cutoff = 10;
    out.b100.mrr = r.task_b.mrr100;
    out.b100.ndcg = r.task_b.ndcg100;
    out.b100.cutoff = 100;
    out.b100.n_instances = h->eval_b100().size();
    return out;
  };
  w->eval_a10 = &h->eval_a10();
  w->eval_b100 = &h->eval_b100();
  w->full_instances = h->eval_a10();
  w->full_index = &h->full_index();
  w->expect_learning = true;

  const MgbrConfig config = *w->mgbr_config;
  w->factory = [h, config]() -> std::unique_ptr<RecModel> {
    return h->MakeMgbr(config, 1);
  };
  // Sixteen in flight keep the one scoring worker busy, so a window
  // measures scoring rather than thread wake-ups between requests.
  w->in_flight = 16;
  w->min_requests = 96;
  w->deep_per_task = 4;
  serve::ServerConfig sc;
  sc.n_workers = 1;
  sc.cache_capacity = 0;
  // MGBR scores every distinct key with its own full-catalogue call, so
  // a batch timeout only adds latency: batches close at once.
  sc.batch_timeout_us = 0;
  // Requests replay deal groups of the calibrated log, drawn with the
  // seed, so users and items carry the simulator's activity and
  // popularity skew.
  auto rng = std::make_shared<Rng>(seed + 5);
  const std::vector<DealGroup>* groups = &h->train_data().groups();
  w->next_request = DealRequests([rng, groups]() {
    const DealGroup& g =
        (*groups)[static_cast<size_t>(rng->UniformInt(groups->size()))];
    return std::make_pair(g.initiator, g.item);
  });
  if (!StartServing(w.get(), seed + 10,
                    [h, config](uint64_t s) -> std::unique_ptr<RecModel> {
                      return h->MakeMgbr(config, s);
                    },
                    sc, error)) {
    return nullptr;
  }
  return w;
}

/// Shared catalogue-scale set-up of the two serving workloads.
ScaleData* SetUpScale(Workload* w, uint64_t seed) {
  auto data = std::make_shared<ScaleData>(seed);
  ScaleData* d = data.get();
  w->scale_data = data;
  w->n_users = d->data.n_users();
  w->n_items = d->data.n_items();
  w->sampler = d->sampler.get();
  w->train_data = &d->split.train;
  w->eval_sampled = [d](RecModel* model) { return d->Evaluate(model); };
  w->eval_a10 = &d->a10;
  w->eval_b100 = &d->b100;
  w->full_index = d->full_index.get();
  return d;
}

TrainConfig ScaleTrainConfig(uint64_t seed, bool mgbr) {
  // The harness's calibrated optimiser settings, at a larger batch.
  TrainConfig tc;
  tc.batch_size = kScaleBatch;
  tc.negs_per_pos = 2;
  tc.learning_rate = 1e-2f;
  tc.weight_decay = mgbr ? 2e-4f : 1e-5f;
  tc.aux_batch_size = 24;
  tc.seed = seed + 4;
  return tc;
}

std::unique_ptr<Workload> MakeServeMgbr30k(uint64_t seed,
                                           std::unique_ptr<Workload> w,
                                           std::string* error) {
  ScaleData* d = SetUpScale(w.get(), seed);
  // The default MgbrConfig shapes (d=32, K=6, L=2) the ROADMAP's GEMM
  // measurements use.
  auto config = std::make_unique<MgbrConfig>(MgbrConfig::Variant("MGBR"));
  config->aux_negatives = 4;
  config->sigmoid_head = false;
  w->mgbr_config = config.get();
  w->owned_mgbr_config = std::move(config);
  const MgbrConfig mc = *w->mgbr_config;
  const GraphInputs* graphs = &d->graphs;
  const auto make = [graphs, mc](uint64_t s) -> std::unique_ptr<RecModel> {
    Rng rng(s);
    return std::make_unique<MgbrModel>(*graphs, mc, &rng);
  };
  w->train_model = make(seed + 3);
  ShardTrainers(w.get(), d->full_index.get(), 1, ScaleTrainConfig(seed, true));
  // One full-catalogue Task A score costs ~1 s here: one user per pass.
  w->full_instances.assign(d->a10.begin(), d->a10.begin() + 1);
  w->factory = [make]() { return make(1); };

  // One deal (a Task A and a Task B query) per window, two in flight.
  w->in_flight = 2;
  w->min_requests = 2;
  w->deep_per_task = 1;
  serve::ServerConfig sc;
  sc.n_workers = 1;
  sc.cache_capacity = 0;  // every request runs the full MTL forward
  sc.batch_timeout_us = 0;  // as in train-harness
  auto rng = std::make_shared<Rng>(seed + 5);
  w->next_request = DealRequests([rng]() {
    const int64_t u = static_cast<int64_t>(rng->UniformInt(kScaleUsers));
    const int64_t i = static_cast<int64_t>(rng->UniformInt(kScaleItems));
    return std::make_pair(u, i);
  });
  if (!StartServing(w.get(), seed + 10, make, sc, error)) return nullptr;
  return w;
}

// Retrieval settings of serve-gbgcn-swap. At the TwoStageConfig default
// nprobe (12) an untrained GBGCN's int8 two-stage top-10 overlaps exact
// fp32 brute force by only ~0.75, so the probe count is stated here.
constexpr int64_t kGbgcnNprobe = 48;
constexpr double kGbgcnOverlapFloor = 0.85;
// Score cache entries: 5 % of the users, so it holds the hot users of
// the skewed stream but not the tail.
constexpr int64_t kGbgcnCache = 1024;

std::unique_ptr<Workload> MakeServeGbgcnSwap(uint64_t seed,
                                             std::unique_ptr<Workload> w,
                                             std::string* error) {
  ScaleData* d = SetUpScale(w.get(), seed);
  const GraphInputs* graphs = &d->graphs;
  const auto make = [graphs](uint64_t s) -> std::unique_ptr<RecModel> {
    Rng rng(s);
    return std::make_unique<Gbgcn>(*graphs, 32, 2, &rng);
  };
  w->train_model = make(seed + 3);
  ShardTrainers(w.get(), d->full_index.get(), 1,
                ScaleTrainConfig(seed, false));
  w->full_instances = d->a10;
  w->factory = [make]() { return make(1); };

  serve::ServerConfig sc;
  sc.n_workers = 1;
  sc.cache_capacity = kGbgcnCache;
  sc.retrieval.enabled = true;
  sc.retrieval.nprobe = kGbgcnNprobe;
  sc.quant = QuantMode::kInt8;
  sc.validation.enabled = true;
  sc.validation.probe_users = 16;
  sc.validation.probe_k = 10;
  sc.validation.min_ref_overlap = 0.0;  // independent inits disagree

  // Deals drawn by the simulator's calibrated laws (BeibeiSimConfig
  // defaults, docs/beibei_sim.md): initiators by the activity Zipf over
  // all users, items by the popularity Zipf over the catalogue.
  const BeibeiSimConfig laws;
  Rng key_rng(seed + 5);
  auto users = std::make_shared<ZipfIds>(kScaleUsers, laws.activity_zipf,
                                         &key_rng);
  auto items = std::make_shared<ZipfIds>(kScaleItems, laws.popularity_zipf,
                                         &key_rng);
  auto rng = std::make_shared<Rng>(seed + 6);
  w->next_request = DealRequests([users, items, rng]() {
    const int64_t u = users->Draw(rng.get());
    return std::make_pair(u, items->Draw(rng.get()));
  });
  w->in_flight = 64;
  w->min_requests = 2000;
  w->windows_per_round = 3;
  w->deep_per_task = 8;
  w->overlap_floor = kGbgcnOverlapFloor;
  if (!StartServing(w.get(), seed + 10, make, sc, error)) return nullptr;
  return w;
}

}  // namespace

Workload::~Workload() {
  if (server != nullptr) server->Stop();
  server.reset();
  pool.reset();
  for (const std::string& path : checkpoints) std::remove(path.c_str());
  if (!work_dir.empty()) ::rmdir(work_dir.c_str());
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& out_dir,
                                       std::string* error) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  ::mkdir(out_dir.c_str(), 0755);
  w->work_dir = out_dir + "/" + name + "-" + std::to_string(seed) + "-" +
                std::to_string(::getpid());
  if (::mkdir(w->work_dir.c_str(), 0755) != 0) {
    *error = "cannot create " + w->work_dir;
    w->work_dir.clear();
    return nullptr;
  }
  if (name == "train-harness") return MakeTrainHarness(seed, std::move(w), error);
  if (name == "serve-mgbr-30k") return MakeServeMgbr30k(seed, std::move(w), error);
  if (name == "serve-gbgcn-swap") {
    return MakeServeGbgcnSwap(seed, std::move(w), error);
  }
  *error = "unknown workload '" + name + "'";
  return nullptr;
}

}  // namespace mgbr::perfbench
