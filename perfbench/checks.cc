#include "perfbench/checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <unordered_set>

namespace mgbr::perfbench {
namespace {

bool Fail(std::string* why, const std::string& message) {
  if (why != nullptr) *why = message;
  return false;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

void CheckLog::Expect(bool passed, const std::string& what,
                      const std::string& why) {
  if (passed) return;
  // Keep the report short when one check fails on many responses.
  int64_t same = 0;
  for (const std::string& f : failures) {
    same += f.rfind(what, 0) == 0 ? 1 : 0;
  }
  if (same < 3) failures.push_back(what + ": " + why);
}

bool CheckResponseShape(const serve::Response& response, int64_t k,
                        int64_t catalogue, std::string* why) {
  if (response.code != serve::ResponseCode::kOk) {
    return Fail(why, std::string("response code ") +
                         serve::ResponseCodeToString(response.code));
  }
  const size_t want = static_cast<size_t>(std::min(k, catalogue));
  if (response.top_k.size() != want || response.scores.size() != want) {
    return Fail(why, "returned " + std::to_string(response.top_k.size()) +
                         " ids / " + std::to_string(response.scores.size()) +
                         " scores, want " + std::to_string(want));
  }
  for (size_t i = 0; i < want; ++i) {
    const int64_t id = response.top_k[i];
    if (id < 0 || id >= catalogue) {
      return Fail(why, "id " + std::to_string(id) + " outside catalogue");
    }
    for (size_t j = 0; j < i; ++j) {
      if (response.top_k[j] == id) {
        return Fail(why, "id " + std::to_string(id) + " returned twice");
      }
    }
    if (!std::isfinite(response.scores[i])) {
      return Fail(why, "non-finite score at rank " + std::to_string(i));
    }
    if (i > 0 && response.scores[i] > response.scores[i - 1]) {
      return Fail(why, "scores increase at rank " + std::to_string(i));
    }
  }
  return true;
}

bool CheckVersionsPublished(const std::vector<int64_t>& versions,
                            const std::set<int64_t>& published,
                            std::string* why) {
  for (const int64_t v : versions) {
    if (published.count(v) == 0) {
      return Fail(why, "version " + std::to_string(v) + " was never published");
    }
  }
  return true;
}

bool CheckLossesFinite(const std::vector<double>& losses, std::string* why) {
  for (size_t i = 0; i < losses.size(); ++i) {
    if (!std::isfinite(losses[i])) {
      return Fail(why, "epoch " + std::to_string(i) + " loss " +
                           Num(losses[i]));
    }
  }
  return true;
}

bool CheckLossDecreased(const std::vector<double>& losses, std::string* why) {
  if (losses.size() < 2) return Fail(why, "fewer than two epochs");
  if (!(losses.back() < losses.front())) {
    return Fail(why, "last epoch loss " + Num(losses.back()) +
                         " not below first " + Num(losses.front()));
  }
  return true;
}

bool CheckAccounting(const serve::ServerStats& stats, int64_t resolved,
                     std::string* why) {
  const int64_t terminal = stats.completed + stats.shed_queue_full +
                           stats.shed_deadline + stats.shed_load +
                           stats.invalid;
  if (stats.submitted != terminal) {
    return Fail(why, "submitted " + std::to_string(stats.submitted) +
                         " != completed+shed+invalid " +
                         std::to_string(terminal));
  }
  if (stats.submitted != resolved) {
    return Fail(why, "server counted " + std::to_string(stats.submitted) +
                         " submissions, generator resolved " +
                         std::to_string(resolved));
  }
  return true;
}

bool CheckScoresMatch(const std::vector<double>& returned,
                      const std::vector<double>& recomputed, double rel_tol,
                      double abs_tol, std::string* why) {
  if (returned.size() != recomputed.size()) {
    return Fail(why, "score count mismatch");
  }
  for (size_t i = 0; i < returned.size(); ++i) {
    const double tol =
        std::max(abs_tol, rel_tol * std::fabs(recomputed[i]));
    if (!(std::fabs(returned[i] - recomputed[i]) <= tol)) {
      return Fail(why, "rank " + std::to_string(i) + " score " +
                           Num(returned[i]) + " vs recomputed " +
                           Num(recomputed[i]));
    }
  }
  return true;
}

bool CheckNoBetterCandidate(const std::vector<int64_t>& top_k,
                            const std::vector<double>& all_scores,
                            double abs_tol, std::string* why) {
  if (top_k.empty()) return Fail(why, "empty top-k");
  std::unordered_set<int64_t> returned(top_k.begin(), top_k.end());
  double kth = std::numeric_limits<double>::infinity();
  for (const int64_t id : top_k) {
    if (id < 0 || id >= static_cast<int64_t>(all_scores.size())) {
      return Fail(why, "id outside candidate set");
    }
    kth = std::min(kth, all_scores[static_cast<size_t>(id)]);
  }
  for (size_t c = 0; c < all_scores.size(); ++c) {
    if (returned.count(static_cast<int64_t>(c)) != 0) continue;
    if (all_scores[c] > kth + abs_tol) {
      return Fail(why, "candidate " + std::to_string(c) + " scores " +
                           Num(all_scores[c]) + " above k-th " + Num(kth));
    }
  }
  return true;
}

int64_t OwnRank(double pos_score, const std::vector<double>& neg_scores) {
  int64_t better_or_tied = 0;
  for (const double s : neg_scores) better_or_tied += s >= pos_score ? 1 : 0;
  return 1 + better_or_tied;
}

int64_t OwnFullRank(const std::vector<double>& scores,
                    const std::vector<uint8_t>& excluded, int64_t pos_item) {
  const double pos = scores[static_cast<size_t>(pos_item)];
  int64_t rank = 1;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (static_cast<int64_t>(i) == pos_item || excluded[i] != 0) continue;
    rank += scores[i] >= pos ? 1 : 0;
  }
  return rank;
}

bool CheckReportMatchesRanks(const RankingReport& report,
                             const std::vector<int64_t>& ranks,
                             int64_t cutoff, double tol, std::string* why) {
  if (report.n_instances != ranks.size()) {
    return Fail(why, "report covers " + std::to_string(report.n_instances) +
                         " instances, recomputed " +
                         std::to_string(ranks.size()));
  }
  double mrr = 0.0, ndcg = 0.0;
  for (const int64_t r : ranks) {
    if (r <= cutoff) {
      mrr += 1.0 / static_cast<double>(r);
      ndcg += 1.0 / std::log2(static_cast<double>(r) + 1.0);
    }
  }
  if (!ranks.empty()) {
    mrr /= static_cast<double>(ranks.size());
    ndcg /= static_cast<double>(ranks.size());
  }
  if (std::fabs(mrr - report.mrr) > tol || std::fabs(ndcg - report.ndcg) > tol) {
    return Fail(why, "evaluator MRR/NDCG " + Num(report.mrr) + "/" +
                         Num(report.ndcg) + " vs recomputed " + Num(mrr) +
                         "/" + Num(ndcg));
  }
  return true;
}

double RandomMrr10() {
  double h = 0.0;
  for (int r = 1; r <= 10; ++r) h += 1.0 / r;
  return h / 10.0;
}

bool CheckBeatsRandom(double mrr10, std::string* why) {
  if (!(mrr10 > RandomMrr10())) {
    return Fail(why, "MRR@10 " + Num(mrr10) + " not above random " +
                         Num(RandomMrr10()));
  }
  return true;
}

double TopKOverlap(const std::vector<int64_t>& a,
                   const std::vector<int64_t>& b) {
  if (b.empty()) return 1.0;
  std::unordered_set<int64_t> in_b(b.begin(), b.end());
  int64_t hit = 0;
  for (const int64_t id : a) hit += in_b.count(id) != 0 ? 1 : 0;
  return static_cast<double>(hit) / static_cast<double>(b.size());
}

bool CheckOverlapFloor(double mean_overlap, double floor, std::string* why) {
  if (!(mean_overlap >= floor)) {
    return Fail(why, "mean top-k overlap " + Num(mean_overlap) +
                         " below floor " + Num(floor));
  }
  return true;
}

bool CheckSwaps(int64_t issued, int64_t failed_loads, int64_t pool_swaps,
                std::string* why) {
  if (failed_loads != 0) {
    return Fail(why, std::to_string(failed_loads) + " LoadVersion calls failed");
  }
  if (pool_swaps != issued + 1) {
    return Fail(why, "pool counts " + std::to_string(pool_swaps) +
                         " swaps, issued " + std::to_string(issued) +
                         " + first install");
  }
  return true;
}

// ---------------------------------------------------------------------------
// Self-test: every check accepts a good output and rejects a corrupted one.
// ---------------------------------------------------------------------------

int RunSelfTest() {
  int bad = 0;
  const auto expect = [&bad](const char* name, bool good_passes,
                             bool corrupt_passes, const std::string& why) {
    const bool ok = good_passes && !corrupt_passes;
    std::printf("%-44s %s  (%s)\n", name, ok ? "ok" : "FAILED",
                why.c_str());
    bad += ok ? 0 : 1;
  };
  std::string why;

  serve::Response good;
  good.code = serve::ResponseCode::kOk;
  good.version = 2;
  good.top_k = {7, 3, 9};
  good.scores = {0.9, 0.5, 0.1};
  const std::set<int64_t> published = {1, 2};
  {
    serve::Response swapped = good;
    std::swap(swapped.top_k[0], swapped.top_k[1]);
    std::swap(swapped.scores[0], swapped.scores[1]);
    why.clear();
    const bool g = CheckResponseShape(good, 3, 10, nullptr);
    const bool c = CheckResponseShape(swapped, 3, 10, &why);
    expect("response: swapped top-K entry", g, c, why);
  }
  {
    why.clear();
    const bool g = CheckVersionsPublished({1, 2, 2}, published, nullptr);
    const bool c = CheckVersionsPublished({1, 5, 2}, published, &why);
    expect("response: wrong version id", g, c, why);
  }
  {
    serve::Response dup = good;
    dup.top_k[2] = 7;
    why.clear();
    const bool c = CheckResponseShape(dup, 3, 10, &why);
    expect("response: duplicate id", true, c, why);
  }
  {
    serve::Response shed = good;
    shed.code = serve::ResponseCode::kShedQueueFull;
    why.clear();
    const bool c = CheckResponseShape(shed, 3, 10, &why);
    expect("response: non-OK code", true, c, why);
  }
  {
    why.clear();
    const std::vector<double> losses = {2.0, 1.5, 1.2};
    std::vector<double> nan_losses = losses;
    nan_losses[1] = std::numeric_limits<double>::quiet_NaN();
    const bool g = CheckLossesFinite(losses, nullptr);
    const bool c = CheckLossesFinite(nan_losses, &why);
    expect("loss: NaN epoch loss", g, c, why);
    why.clear();
    const bool g2 = CheckLossDecreased(losses, nullptr);
    const bool c2 = CheckLossDecreased({1.2, 1.5, 2.0}, &why);
    expect("loss: rising loss", g2, c2, why);
  }
  {
    serve::ServerStats stats;
    stats.submitted = 10;
    stats.completed = 9;
    stats.shed_queue_full = 1;
    why.clear();
    const bool g = CheckAccounting(stats, 10, nullptr);
    const bool c = CheckAccounting(stats, 9, &why);  // one response dropped
    expect("accounting: dropped response", g, c, why);
  }
  {
    const std::vector<double> ref = {0.9, 0.5, 0.1};
    std::vector<double> perturbed = ref;
    perturbed[1] += 1e-3;
    why.clear();
    const bool g = CheckScoresMatch(ref, ref, 1e-5, 1e-9, nullptr);
    const bool c = CheckScoresMatch(perturbed, ref, 1e-5, 1e-9, &why);
    expect("scores: perturbed score", g, c, why);
  }
  {
    // Candidate 4 (0.95) beats the returned k-th (0.1).
    std::vector<double> all = {0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.9, 0.0,
                               0.1};
    why.clear();
    const bool g = CheckNoBetterCandidate(good.top_k, all, 1e-9, nullptr);
    all[4] = 0.95;
    const bool c = CheckNoBetterCandidate(good.top_k, all, 1e-9, &why);
    expect("top-k: better candidate left out", g, c, why);
  }
  {
    RankingReport report;
    report.cutoff = 10;
    report.n_instances = 2;
    report.mrr = (1.0 + 0.5) / 2.0;
    report.ndcg = (1.0 + 1.0 / std::log2(3.0)) / 2.0;
    why.clear();
    const bool g = CheckReportMatchesRanks(report, {1, 2}, 10, 1e-12, nullptr);
    const bool c = CheckReportMatchesRanks(report, {1, 3}, 10, 1e-12, &why);
    expect("eval: report disagrees with own ranks", g, c, why);
  }
  {
    why.clear();
    const bool g = OwnRank(0.5, {0.1, 0.5, 0.7}) == 3 &&
                   OwnFullRank({0.2, 0.9, 0.5, 0.5}, {0, 1, 0, 0}, 2) == 2;
    const bool c = CheckBeatsRandom(0.25, &why);
    expect("eval: MRR@10 at random level", g && CheckBeatsRandom(0.4, nullptr),
           c, why);
  }
  {
    why.clear();
    const double full = TopKOverlap({1, 2, 3, 4}, {4, 3, 2, 1});
    const double half = TopKOverlap({1, 2, 8, 9}, {4, 3, 2, 1});
    const bool g = full == 1.0 && CheckOverlapFloor(full, 0.9, nullptr);
    const bool c = CheckOverlapFloor(half, 0.9, &why);
    expect("retrieval: overlap below floor", g, c, why);
  }
  {
    why.clear();
    const bool g = CheckSwaps(3, 0, 4, nullptr);
    const bool c = CheckSwaps(3, 1, 3, &why);
    expect("swap: failed LoadVersion", g, c, why);
  }
  std::printf("selftest: %d check(s) misbehaved\n", bad);
  return bad;
}

}  // namespace mgbr::perfbench
