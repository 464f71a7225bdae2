// End-to-end benchmark program: builds one workload, runs whole rounds of
// [one train-shard epoch, sampled eval, full-ranking eval, closed-loop
// serving windows with one hot swap beside each] for --seconds, checks
// every output against an independent computation, and prints one JSON
// line with the raw measurements. perfbench/run.py builds this binary, runs it and
// turns that line (plus, with --trace 1, the span trace) into the
// benchmark's result. See perfbench/README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--trace-out <file>]
//   perfbench --selftest

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/parallel.h"
#include "common/trace.h"
#include "eval/metrics.h"
#include "models/quant_view.h"
#include "perfbench/checks.h"
#include "perfbench/serve_loop.h"
#include "perfbench/workloads.h"
#include "retrieval/two_stage.h"
#include "tensor/arena.h"
#include "tensor/variable.h"
#include "train/checkpoint.h"

namespace mgbr::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean of the values left after dropping the lowest and the highest
/// `share` of them (rounded down). A slow stretch of the host moves it
/// in proportion to the share of the run it covers, where a median would
/// jump from the fast to the slow figure once that share passes half.
double TrimmedMean(std::vector<double> v, double share = 0.1) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t cut =
      static_cast<size_t>(share * static_cast<double>(v.size()));
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// Nearest-rank percentile (q in (0, 1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Requests per block of the latency p99: ten lie beyond each block's p99.
constexpr size_t kP99Block = 1000;

/// The requests, in the order they resolved, cut into equal blocks of at
/// least kP99Block (one block when there are fewer); the mean of the
/// middle half of the blocks' nearest-rank p99s. A host stall delays
/// every request in flight and so raises the p99 of each block it
/// touches; stalls that touch under a quarter of the blocks drop out.
double BlockP99(const std::vector<double>& v) {
  const size_t blocks = std::max<size_t>(1, v.size() / kP99Block);
  std::vector<double> p99;
  for (size_t b = 0; b < blocks; ++b) {
    p99.push_back(Percentile(
        std::vector<double>(
            v.begin() + static_cast<long>(b * v.size() / blocks),
            v.begin() + static_cast<long>((b + 1) * v.size() / blocks)),
        0.99));
  }
  return TrimmedMean(p99, 0.25);
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::vector<double> ColumnDoubles(const Var& column) {
  std::vector<double> out(static_cast<size_t>(column.rows()));
  for (int64_t r = 0; r < column.rows(); ++r) {
    out[static_cast<size_t>(r)] = column.value().at(r, 0);
  }
  return out;
}

/// MTL forward work per scored row, computed from the MgbrConfig shapes
/// (expert_gate.cc): GEMM and gate-mix multiply-adds at 2 FLOPs each;
/// bytes are the fp32 activations each GEMM/mix reads and writes per row
/// (weights, softmax, concat and adds not counted).
void MtlCountsPerRow(const MgbrConfig& c, double* flops, double* bytes) {
  const double d = static_cast<double>(c.dim);
  const double k = static_cast<double>(c.n_experts);
  const bool shared = c.use_shared_experts;
  double f = 0.0, b = 0.0;
  const auto gemm = [&](double in, double out, double times) {
    f += times * 2.0 * in * out;
    b += times * 4.0 * (in + out);
  };
  const auto mix = [&](double blocks, double times) {
    f += times * 2.0 * blocks * d;
    b += times * 4.0 * (blocks * d + blocks + d);
  };
  for (int64_t l = 0; l < c.mtl_layers; ++l) {
    const bool first = l == 0;
    const bool last = l + 1 == c.mtl_layers;
    const double in_a = first ? 6 * d : (shared ? 2 * d : d);
    const double in_s = first ? 6 * d : 3 * d;
    const double gate_w = shared ? 2 * k : k;
    gemm(in_a, k * d, 2);  // experts_a, experts_b
    gemm(in_a, gate_w, 2);  // gate_a, gate_b
    mix(gate_w, 2);
    if (shared) gemm(in_s, k * d, 1);
    if (shared && !last) {
      gemm(in_s, 3 * k, 1);
      mix(3 * k, 1);
    }
    if (c.alpha_a != 0.0f) {
      const double n = shared ? 3 : 1;
      gemm(4 * d, k, n);
      mix(k, n);
    }
    if (c.alpha_b != 0.0f) {
      const double n = shared ? 3 : 2;
      gemm(4 * d, k, n);
      mix(k, n);
    }
  }
  *flops = f;
  *bytes = b;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".perfbench_out";
  std::string trace_out;  // default: <work dir>.trace.json
};

/// Version v serves checkpoints[(v - 1) % size].
size_t CheckpointOf(int64_t version, size_t n) {
  return static_cast<size_t>(version - 1) % n;
}

/// Per-round measurements.
struct Round {
  double eval_sampled_s = 0.0;
  double eval_full_s = 0.0;
  double round_s = 0.0;
  bool traced = false;
};

class Runner {
 public:
  Runner(const Options& opt, Workload* w)
      : opt_(opt),
        w_(w),
        epoch_s_(w->trainers.size()),
        losses_(w->trainers.size()) {}

  void Run();
  void Check();
  void Probe();
  void Print(double setup_s) const;

 private:
  /// Reference copy of checkpoint `idx`, loaded apart from the pool.
  RecModel* Reference(size_t idx);
  void DeepCheckExact();
  void DeepCheckQuantized();
  /// One serving window with one hot swap beside it.
  void ServeWindow();

  const Options& opt_;
  Workload* w_;
  CheckLog log_;
  std::vector<Round> rounds_;
  /// Per shard: epoch seconds of the timed rounds, and every epoch's
  /// mean loss (warm-up included).
  std::vector<std::vector<double>> epoch_s_;
  std::vector<std::vector<double>> losses_;
  /// Called for every resolved request: accounting, shape check,
  /// latency samples and the retained sample for the deep checks.
  void OnResolved(const ServedRequest& s);

  int64_t resolved_ = 0;
  std::vector<int64_t> versions_seen_;
  std::vector<double> window_qps_, window_p50_ms_;
  std::vector<double> latency_ms_, queue_wait_ms_, batch_wait_ms_, score_ms_;
  /// First `deep_per_task` OK responses per (checkpoint, task).
  std::vector<ServedRequest> samples_;
  size_t max_samples_ = 0;
  std::map<std::pair<size_t, int>, int> sampled_;
  std::set<int64_t> published_ = {1};
  std::vector<double> swap_s_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t swaps_issued_ = 0;
  int64_t swaps_failed_ = 0;
  double peak_rss_mb_ = 0.0;
  serve::ServerStats stats_;
  TensorArena::Stats arena_;
  std::map<size_t, std::unique_ptr<RecModel>> references_;
  std::map<std::string, double> layer_;  // per-layer values measured here
};

void Runner::ServeWindow() {
  // Version v serves checkpoints[(v - 1) % size]: each publish loads the
  // next one in turn.
  const auto publish = [this]() {
    ++swaps_issued_;
    const Status s = w_->pool->LoadVersion(
        w_->checkpoints[static_cast<size_t>(swaps_issued_) %
                        w_->checkpoints.size()]);
    if (s.ok()) published_.insert(w_->pool->current_id());
    return s;
  };
  const size_t first_latency = latency_ms_.size();
  const WindowResult win = RunClosedLoopWindow(
      w_->server.get(), w_->in_flight, w_->min_requests, w_->next_request,
      publish, [this](const ServedRequest& s) { OnResolved(s); });
  window_qps_.push_back(static_cast<double>(win.resolved) / win.seconds);
  window_p50_ms_.push_back(Median(std::vector<double>(
      latency_ms_.begin() + static_cast<long>(first_latency),
      latency_ms_.end())));
  ++attempted_;
  swap_s_.push_back(win.swap_s);
  if (!win.swap_status.ok()) {
    ++failed_;
    ++swaps_failed_;
    log_.Expect(false, "swap", win.swap_status.ToString());
  }
}

void Runner::Run() {
  max_samples_ = static_cast<size_t>(w_->deep_per_task) * 2 *
                 (w_->overlap_floor > 0.0 ? w_->checkpoints.size() : 1);
  const size_t shards = w_->trainers.size();
  // Whole rounds only, and at least two timed epochs of every shard so
  // the loss trends and the medians are defined.
  const int min_rounds = static_cast<int>(2 * shards);
  Clock::time_point start = Clock::now();
  // Round 0 is a warm-up: its outputs are checked, but it is not timed
  // into the metrics and the --seconds budget starts after it.
  for (int r = 0;; ++r) {
    if (r == 1) {
      rounds_.clear();
      for (std::vector<double>& v : epoch_s_) v.clear();
      window_qps_.clear();
      window_p50_ms_.clear();
      latency_ms_.clear();
      queue_wait_ms_.clear();
      batch_wait_ms_.clear();
      score_ms_.clear();
      swap_s_.clear();
      TensorArena::Global().ResetStats();
      start = Clock::now();
    }
    if (r > min_rounds && SecondsSince(start) >= opt_.seconds) break;
    Round round;
    round.traced = opt_.trace && r % 2 == 0 && r > 0;
    trace::SetEnabled(round.traced);
    const Clock::time_point round_t0 = Clock::now();

    const size_t shard = static_cast<size_t>(r) % shards;
    double epoch_s = 0.0;
    {
      TraceSpan span("bench.epoch", "bench");
      const Clock::time_point t0 = Clock::now();
      const EpochStats stats = w_->trainers[shard]->RunEpoch();
      epoch_s = SecondsSince(t0);
      epoch_s_[shard].push_back(epoch_s);
      losses_[shard].push_back(stats.TotalLoss());
      ++attempted_;
    }
    {
      TraceSpan span("bench.eval_sampled", "bench");
      const Clock::time_point t0 = Clock::now();
      w_->eval_sampled(w_->train_model.get());
      round.eval_sampled_s = SecondsSince(t0);
      ++attempted_;
    }
    {
      // The model was refreshed by the sampled pass just above.
      const FullTaskAScorer inner = w_->train_model->MakeFullTaskAScorer();
      const FullTaskAScorer scorer = [&inner](int64_t u) {
        TraceSpan span("bench.score_full", "bench");
        return inner(u);
      };
      TraceSpan span("bench.eval_full", "bench");
      const Clock::time_point t0 = Clock::now();
      EvaluateTaskAFullRanking(w_->full_instances, scorer, *w_->full_index,
                               w_->n_items, 10);
      round.eval_full_s = SecondsSince(t0);
      ++attempted_;
    }
    const size_t first_window = window_qps_.size();
    for (int i = 0; i < w_->windows_per_round; ++i) ServeWindow();
    round.round_s = SecondsSince(round_t0);
    rounds_.push_back(round);
    std::fprintf(stderr,
                 "perfbench: round %d%s epoch[%zu] %.3fs sampled %.3fs "
                 "full %.3fs serve %.1f req/s round %.3fs\n",
                 r, round.traced ? " (traced)" : "", shard, epoch_s,
                 round.eval_sampled_s, round.eval_full_s,
                 Median(std::vector<double>(
                     window_qps_.begin() + static_cast<long>(first_window),
                     window_qps_.end())),
                 round.round_s);
  }
  trace::SetEnabled(false);
  peak_rss_mb_ = PeakRssMb();
  arena_ = TensorArena::Global().GetStats();
  w_->server->Stop();
  stats_ = w_->server->stats();
}

RecModel* Runner::Reference(size_t idx) {
  auto it = references_.find(idx);
  if (it != references_.end()) return it->second.get();
  std::unique_ptr<RecModel> model = w_->factory();
  std::vector<Var> params = model->Parameters();
  const Status s = LoadParameters(w_->checkpoints[idx], &params);
  log_.Expect(s.ok(), "reference load", s.ToString());
  model->Refresh();
  RecModel* raw = model.get();
  references_[idx] = std::move(model);
  return raw;
}

void Runner::OnResolved(const ServedRequest& s) {
  ++resolved_;
  ++attempted_;
  const serve::Response& x = s.response;
  if (x.code != serve::ResponseCode::kOk) {
    // No workload sheds or rejects by design: any non-OK response is a
    // failed operation and makes the run incorrect.
    ++failed_;
    log_.Expect(false, "response", serve::ResponseCodeToString(x.code));
    return;
  }
  // The version is checked against the published set after the run:
  // a response can arrive before the publisher has recorded its id.
  versions_seen_.push_back(x.version);
  const bool task_a = s.request.task == serve::TaskKind::kTopKItems;
  std::string why;
  log_.Expect(CheckResponseShape(x, s.request.k,
                                 task_a ? w_->n_items : w_->n_users, &why),
              "response", why);
  latency_ms_.push_back(static_cast<double>(x.done_us - s.submit_us) * 1e-3);
  queue_wait_ms_.push_back(static_cast<double>(x.batch_close_us - x.enqueue_us) * 1e-3);
  batch_wait_ms_.push_back(static_cast<double>(x.score_start_us - x.batch_close_us) * 1e-3);
  score_ms_.push_back(static_cast<double>(x.done_us - x.score_start_us) * 1e-3);
  // Exact workloads sample per task; the int8 one per checkpoint too,
  // so every parameter set gets its own reference.
  if (samples_.size() >= max_samples_) return;
  const size_t ckpt = w_->overlap_floor > 0.0
                          ? CheckpointOf(x.version, w_->checkpoints.size())
                          : 0;
  int& n = sampled_[{ckpt, static_cast<int>(s.request.task)}];
  if (n < w_->deep_per_task) {
    ++n;
    samples_.push_back(s);
  }
}

void Runner::DeepCheckExact() {
  // Each returned score against the per-pair ScoreA/ScoreB path of a
  // separately loaded copy, and every other candidate scored the same
  // way may not beat the k-th. Exact paths are bitwise equal by the
  // engine's row-independence contract; the tolerance only absorbs the
  // float->double widening order.
  NoGradScope no_grad;
  for (const ServedRequest& sample : samples_) {
    const ServedRequest* s = &sample;
    RecModel* ref =
        Reference(CheckpointOf(s->response.version, w_->checkpoints.size()));
    const bool task_a = s->request.task == serve::TaskKind::kTopKItems;
    const int64_t n = task_a ? w_->n_items : w_->n_users;
    std::vector<double> all;
    all.reserve(static_cast<size_t>(n));
    for (int64_t lo = 0; lo < n; lo += kEvalBatchCandidates) {
      const int64_t hi = std::min(n, lo + kEvalBatchCandidates);
      std::vector<int64_t> users(static_cast<size_t>(hi - lo), s->request.user);
      std::vector<int64_t> cands(static_cast<size_t>(hi - lo));
      for (int64_t c = lo; c < hi; ++c) cands[static_cast<size_t>(c - lo)] = c;
      const Var col =
          task_a ? ref->ScoreA(users, cands)
                 : ref->ScoreB(users,
                               std::vector<int64_t>(cands.size(),
                                                    s->request.item),
                               cands);
      const std::vector<double> part = ColumnDoubles(col);
      all.insert(all.end(), part.begin(), part.end());
    }
    std::vector<double> at_ids;
    for (const int64_t id : s->response.top_k) {
      at_ids.push_back(all[static_cast<size_t>(id)]);
    }
    std::string why;
    log_.Expect(CheckScoresMatch(s->response.scores, at_ids, 1e-5, 1e-9, &why),
                "served score vs per-pair path", why);
    log_.Expect(CheckNoBetterCandidate(s->response.top_k, all, 1e-9, &why),
                "served top-k vs all candidates", why);
  }
}

void Runner::DeepCheckQuantized() {
  // Recompute each returned score with the benchmark's own dot product
  // over int8 rows decoded from a separately loaded copy of the
  // version's checkpoint; measure Task A top-k overlap with exact fp32
  // brute force.
  std::map<size_t, std::shared_ptr<const QuantizedEmbeddingView>> views;
  double overlap_sum = 0.0;
  int64_t overlap_n = 0;
  for (const ServedRequest& sample : samples_) {
    const ServedRequest* s = &sample;
    const size_t c = CheckpointOf(s->response.version, w_->checkpoints.size());
    RecModel* ref = Reference(c);
    auto& view = views[c];
    if (view == nullptr) view = QuantizedEmbeddingView::BuildFor(*ref, QuantMode::kInt8);
    const bool task_a = s->request.task == serve::TaskKind::kTopKItems;
    std::vector<float> query;
    const bool have_query =
        task_a ? ref->RetrievalQueryA(s->request.user, &query)
               : ref->RetrievalQueryB(s->request.user, s->request.item, &query);
    log_.Expect(have_query && view != nullptr, "int8 reference",
                "model exposes no retrieval view");
    if (!have_query || view == nullptr) continue;
    const QuantizedTable& table =
        task_a ? view->item_table() : view->part_table();
    std::vector<float> row(static_cast<size_t>(table.d()));
    const auto own_score = [&](int64_t id) {
      table.DecodeRow(id, row.data());
      double acc = 0.0;
      for (size_t j = 0; j < row.size(); ++j) {
        acc += static_cast<double>(query[j]) * static_cast<double>(row[j]);
      }
      return acc;
    };
    std::vector<double> at_ids;
    for (const int64_t id : s->response.top_k) at_ids.push_back(own_score(id));
    std::string why;
    log_.Expect(CheckScoresMatch(s->response.scores, at_ids, 1e-4, 1e-5, &why),
                "served int8 score vs own decode", why);
    if (task_a) {
      NoGradScope no_grad;
      const std::vector<int64_t> exact =
          TopKIndices(ColumnDoubles(ref->ScoreAAll(s->request.user)), w_->k);
      overlap_sum += TopKOverlap(s->response.top_k, exact);
      ++overlap_n;
    } else {
      // Task B is brute force over the int8 participant table: nothing
      // outside the returned set may beat the k-th by own decode.
      std::vector<double> all(static_cast<size_t>(table.n()));
      for (int64_t p = 0; p < table.n(); ++p) {
        all[static_cast<size_t>(p)] = own_score(p);
      }
      log_.Expect(CheckNoBetterCandidate(s->response.top_k, all, 1e-4, &why),
                  "served int8 Task B top-k vs all candidates", why);
    }
  }
  std::string why;
  const double mean = overlap_n > 0 ? overlap_sum / overlap_n : 0.0;
  log_.Expect(overlap_n > 0 && CheckOverlapFloor(mean, w_->overlap_floor, &why),
              "two-stage int8 top-k overlap", why);
  std::fprintf(stderr, "perfbench: served int8 top-%" PRId64
               " overlap with fp32 brute force %.4f over %" PRId64
               " responses\n", w_->k, mean, overlap_n);
}

void Runner::Check() {
  std::string why;
  for (const std::vector<double>& losses : losses_) {
    log_.Expect(CheckLossesFinite(losses, &why), "epoch loss", why);
    if (w_->expect_learning) {
      log_.Expect(CheckLossDecreased(losses, &why), "loss trend", why);
    }
  }
  log_.Expect(CheckAccounting(stats_, resolved_, &why),
              "serving accounting", why);
  log_.Expect(CheckSwaps(swaps_issued_, swaps_failed_,
                         w_->pool->swap_count(), &why),
              "swaps", why);
  log_.Expect(CheckVersionsPublished(versions_seen_, published_, &why),
              "response version", why);

  // Sampled protocol, recomputed from raw per-instance ScoreA/ScoreB
  // calls with the benchmark's own ranking code.
  RecModel* model = w_->train_model.get();
  const SampledReports reports = w_->eval_sampled(model);
  {
    NoGradScope no_grad;
    std::vector<int64_t> ranks;
    for (const EvalInstanceA& inst : *w_->eval_a10) {
      std::vector<int64_t> cands = {inst.pos_item};
      cands.insert(cands.end(), inst.neg_items.begin(), inst.neg_items.end());
      const std::vector<double> s = ColumnDoubles(
          model->ScoreA(std::vector<int64_t>(cands.size(), inst.user), cands));
      ranks.push_back(OwnRank(s[0], std::vector<double>(s.begin() + 1, s.end())));
    }
    log_.Expect(CheckReportMatchesRanks(reports.a10, ranks, 10, 1e-12, &why),
                "Task A @10 recompute", why);
    ranks.clear();
    for (const EvalInstanceB& inst : *w_->eval_b100) {
      std::vector<int64_t> cands = {inst.pos_part};
      cands.insert(cands.end(), inst.neg_parts.begin(), inst.neg_parts.end());
      const std::vector<double> s = ColumnDoubles(model->ScoreB(
          std::vector<int64_t>(cands.size(), inst.user),
          std::vector<int64_t>(cands.size(), inst.item), cands));
      ranks.push_back(OwnRank(s[0], std::vector<double>(s.begin() + 1, s.end())));
    }
    log_.Expect(CheckReportMatchesRanks(reports.b100, ranks, 100, 1e-12, &why),
                "Task B @100 recompute", why);
  }
  if (w_->expect_learning) {
    log_.Expect(CheckBeatsRandom(reports.a10.mrr, &why), "Task A MRR@10", why);
    log_.Expect(CheckBeatsRandom(reports.b10.mrr, &why), "Task B MRR@10", why);
  }

  // Full ranking, recomputed by brute counting over each user's
  // non-excluded items from per-pair ScoreA calls.
  {
    const RankingReport report = EvaluateTaskAFullRanking(
        w_->full_instances, model->MakeFullTaskAScorer(), *w_->full_index,
        w_->n_items, 10);
    NoGradScope no_grad;
    std::vector<int64_t> all_items(static_cast<size_t>(w_->n_items));
    for (int64_t i = 0; i < w_->n_items; ++i) all_items[static_cast<size_t>(i)] = i;
    std::map<int64_t, std::vector<double>> scores_of;
    std::vector<int64_t> ranks;
    for (const EvalInstanceA& inst : w_->full_instances) {
      auto it = scores_of.find(inst.user);
      if (it == scores_of.end()) {
        it = scores_of
                 .emplace(inst.user,
                          ColumnDoubles(model->ScoreA(
                              std::vector<int64_t>(all_items.size(), inst.user),
                              all_items)))
                 .first;
      }
      std::vector<uint8_t> excluded(all_items.size(), 0);
      for (const int64_t i : w_->full_index->ItemsOf(inst.user)) {
        if (i >= 0 && i < w_->n_items) excluded[static_cast<size_t>(i)] = 1;
      }
      ranks.push_back(OwnFullRank(it->second, excluded, inst.pos_item));
    }
    log_.Expect(CheckReportMatchesRanks(report, ranks, 10, 1e-12, &why),
                "full-ranking recompute", why);
  }

  if (w_->overlap_floor > 0.0) {
    DeepCheckQuantized();
  } else {
    DeepCheckExact();
  }
}

void Runner::Probe() {
  // Standalone calls into single layers, timed from outside. Runs only
  // in the traced mode, after the measured rounds, with tracing on so
  // the program's own spans nest under the benchmark's.
  trace::SetEnabled(true);
  const auto version = w_->pool->Acquire();
  RecModel* model = version->model.get();
  const auto time_ms = [](const std::function<void()>& fn, int reps) {
    std::vector<double> v;
    for (int i = 0; i < reps; ++i) {
      const Clock::time_point t0 = Clock::now();
      fn();
      v.push_back(SecondsSince(t0) * 1e3);
    }
    return Median(v);
  };
  const bool big = w_->n_items > 10000;
  const int score_reps = w_->mgbr_config != nullptr && big ? 2 : 20;
  {
    NoGradScope no_grad;
    layer_["core.score_a_all_ms"] = time_ms([&] {
      TraceSpan span("bench.score_a_all", "bench");
      model->ScoreAAll(1);
    }, score_reps);
    layer_["core.score_b_all_ms"] = time_ms([&] {
      TraceSpan span("bench.score_b_all", "bench");
      model->ScoreBAll(1, 1);
    }, score_reps);
    layer_["core.score_a_all_rows"] = static_cast<double>(model->num_items());
    const std::vector<double> scores = ColumnDoubles(model->ScoreAAll(2));
    layer_["eval.topk_us"] =
        1e3 * time_ms([&] { TopKIndices(scores, w_->k); }, 200);

    // The validation gate's canary, replayed: probe users' full Task A
    // scores and top-k (model_pool.cc ValidateCandidate).
    const auto& vc = w_->server->config().validation;
    layer_["serve.validate_ms"] =
        vc.enabled ? time_ms([&] {
          for (int64_t u = 0; u < std::min(vc.probe_users, model->num_users());
               ++u) {
            TopKIndices(ColumnDoubles(model->ScoreAAll(u)), vc.probe_k);
          }
        }, 3)
                   : 0.0;
  }
  if (w_->mgbr_config != nullptr) {
    double flops = 0.0, bytes = 0.0;
    MtlCountsPerRow(*w_->mgbr_config, &flops, &bytes);
    layer_["core.mtl_flop_per_row"] = flops;
    layer_["core.mtl_bytes_per_row"] = bytes;
  } else {
    layer_["core.mtl_flop_per_row"] = 0.0;
    layer_["core.mtl_bytes_per_row"] = 0.0;
  }

  const serve::ServerConfig& sc = w_->server->config();
  layer_["retrieval.index_build_ms"] =
      sc.retrieval.enabled ? time_ms([&] {
        retrieval::ItemRetriever::BuildFor(*model, sc.retrieval);
      }, 3)
                           : 0.0;
  layer_["models.quant_build_ms"] =
      sc.quant != QuantMode::kFp32 ? time_ms([&] {
        QuantizedEmbeddingView::BuildFor(*model, sc.quant);
      }, 3)
                                   : 0.0;
  double search_us = 0.0, recall = 0.0;
  if (version->retriever != nullptr) {
    std::vector<double> t;
    double hit = 0.0;
    const int64_t users = 100;
    NoGradScope no_grad;
    for (int64_t u = 0; u < users; ++u) {
      const Clock::time_point t0 = Clock::now();
      version->retriever->Candidates(*model, u, w_->k);
      t.push_back(SecondsSince(t0) * 1e6);
      const retrieval::RetrievalResult two =
          retrieval::TwoStageTopK(model, *version->retriever, u, w_->k);
      hit += TopKOverlap(two.top_k,
                         TopKIndices(ColumnDoubles(model->ScoreAAll(u)), w_->k));
    }
    search_us = Median(t);
    recall = hit / static_cast<double>(users);
  }
  layer_["retrieval.search_us"] = search_us;
  layer_["retrieval.recall_at_10"] = recall;
  layer_["serve.model_bytes"] =
      static_cast<double>(serve::ModelPool::ServedTableBytes(*version));
  trace::SetEnabled(false);

  // Negative-sampler rejections per draw over one pass of the training
  // positives (the trainer's sampler, driven through its public draws).
  NegSampleStats ns;
  Rng rng(opt_.seed + 99);
  for (const DealGroup& g : w_->train_data->groups()) {
    w_->sampler->SampleNegativeItem(g.initiator, &rng, &ns);
    for (const int64_t p : g.participants) {
      (void)p;
      w_->sampler->SampleNegativeParticipant(g.initiator, g.item, &rng, &ns);
    }
  }
  layer_["data.reject_ratio"] =
      ns.draws > 0 ? static_cast<double>(ns.rejections) /
                         static_cast<double>(ns.draws)
                   : 0.0;
}

void Runner::Print(double setup_s) const {
  std::vector<double> sampled, full, traced_round, plain_round;
  for (const Round& r : rounds_) {
    sampled.push_back(r.eval_sampled_s);
    full.push_back(r.eval_full_s);
    (r.traced ? traced_round : plain_round).push_back(r.round_s);
  }
  // Repeated operations are summarised by their trimmed mean. An epoch
  // over all the train data is one epoch of every shard.
  double epoch_s = 0.0;
  for (const std::vector<double>& v : epoch_s_) epoch_s += TrimmedMean(v);
  std::map<std::string, std::pair<double, std::string>> e2e = {
      {"setup_s", {setup_s, "s"}},
      {"peak_rss_mb", {peak_rss_mb_, "MB"}},
      {"train_epoch_s", {epoch_s, "s"}},
      {"eval_sampled_s", {TrimmedMean(sampled), "s"}},
      {"eval_full_s", {TrimmedMean(full), "s"}},
      {"serve_qps", {TrimmedMean(window_qps_), "req/s"}},
      // Each window's median latency, summarised over the windows.
      {"latency_p50_ms", {TrimmedMean(window_p50_ms_), "ms"}},
      {"latency_p99_ms", {BlockP99(latency_ms_), "ms"}},
      {"swap_s", {TrimmedMean(swap_s_), "s"}},
  };

  std::map<std::string, double> layer = layer_;
  const double completed = static_cast<double>(std::max<int64_t>(1, stats_.completed));
  layer["serve.queue_wait_ms.p50"] = Median(queue_wait_ms_);
  layer["serve.queue_wait_ms.p99"] = Percentile(queue_wait_ms_, 0.99);
  layer["serve.batch_wait_ms.p50"] = Median(batch_wait_ms_);
  layer["serve.batch_wait_ms.p99"] = Percentile(batch_wait_ms_, 0.99);
  layer["serve.score_ms.p50"] = Median(score_ms_);
  layer["serve.score_ms.p99"] = Percentile(score_ms_, 0.99);
  layer["serve.batch_size"] =
      stats_.batches > 0 ? static_cast<double>(stats_.completed) /
                               static_cast<double>(stats_.batches)
                         : 0.0;
  layer["serve.scored_per_request"] =
      static_cast<double>(stats_.unique_scored) / completed;
  layer["serve.cache_hit_ratio"] =
      static_cast<double>(stats_.cache_hits) / completed;
  layer["retrieval.two_stage_ratio"] =
      static_cast<double>(stats_.two_stage) / completed;
  layer["models.quant_scored_ratio"] =
      static_cast<double>(stats_.quant_scored) / completed;
  layer["tensor.arena_hit_ratio"] =
      arena_.hits + arena_.misses > 0
          ? static_cast<double>(arena_.hits) /
                static_cast<double>(arena_.hits + arena_.misses)
          : 0.0;
  std::unordered_set<int64_t> users;
  for (const EvalInstanceA& inst : w_->full_instances) users.insert(inst.user);
  layer["eval.full_unique_users"] = static_cast<double>(users.size());
  layer["train.epoch_shards"] = static_cast<double>(w_->trainers.size());
  layer["trace.overhead_pct"] =
      !traced_round.empty() && !plain_round.empty()
          ? 100.0 * (Median(traced_round) / Median(plain_round) - 1.0)
          : 0.0;
  std::fprintf(stderr,
               "perfbench: %zu timed rounds, %zu timed requests, %zu swaps\n",
               rounds_.size(), latency_ms_.size(), swap_s_.size());

  std::string out = "{\"correct\":";
  out += log_.ok() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, vu] : e2e) {
    out += std::string(first ? "" : ",") + JsonString(name) +
           ":{\"value\":" + Num(vu.first) + ",\"unit\":" + JsonString(vu.second) +
           "}";
    first = false;
  }
  out += "},\"layer\":{";
  first = true;
  for (const auto& [name, v] : layer) {
    out += std::string(first ? "" : ",") + JsonString(name) + ":" + Num(v);
    first = false;
  }
  out += "},\"failures\":[";
  for (size_t i = 0; i < log_.failures.size(); ++i) {
    out += std::string(i == 0 ? "" : ",") + JsonString(log_.failures[i]);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
}

int Main(int argc, char** argv) {
  const Clock::time_point process_t0 = Clock::now();
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return RunSelfTest() == 0 ? 0 : 1;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--out-dir") {
      opt.out_dir = value;
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  // Single-threaded kernels; the server's batcher and one worker, the
  // generator and the publisher make four threads at most.
  SetNumThreads(1);
  trace::SetEnabled(false);

  std::string error;
  std::unique_ptr<Workload> w = MakeWorkload(opt.workload, opt.seed,
                                             opt.out_dir, &error);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  const double setup_s = SecondsSince(process_t0);

  Runner runner(opt, w.get());
  runner.Run();
  runner.Check();
  if (opt.trace) {
    runner.Probe();
    const std::string path =
        opt.trace_out.empty() ? w->work_dir + ".trace.json" : opt.trace_out;
    const Status s = trace::WriteChromeTrace(path);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: trace: %s\n", s.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
  }
  runner.Print(setup_s);
  return 0;
}

}  // namespace
}  // namespace mgbr::perfbench

int main(int argc, char** argv) { return mgbr::perfbench::Main(argc, argv); }
