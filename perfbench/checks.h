#ifndef MGBR_PERFBENCH_CHECKS_H_
#define MGBR_PERFBENCH_CHECKS_H_

// Output checks of the benchmark. Each check is a pure function over
// plain values, so `perfbench --selftest` can feed it a corrupted output
// and show that it rejects it. A check returns true when the output
// passes; on failure it sets `*why` to one line saying why.

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "eval/metrics.h"
#include "serve/types.h"

namespace mgbr::perfbench {

/// Collected check failures of one run; the run is correct when empty.
struct CheckLog {
  std::vector<std::string> failures;
  bool ok() const { return failures.empty(); }
  /// Records `passed`; keeps at most a few failure lines per check name.
  void Expect(bool passed, const std::string& what, const std::string& why);
};

/// A served response: OK, exactly min(k, catalogue) distinct
/// in-catalogue ids and non-increasing finite scores. Allocation-free:
/// it runs on the generator thread for every response.
bool CheckResponseShape(const serve::Response& response, int64_t k,
                        int64_t catalogue, std::string* why);

/// Every response's version id was published by a swap.
bool CheckVersionsPublished(const std::vector<int64_t>& versions,
                            const std::set<int64_t>& published,
                            std::string* why);

/// Every epoch loss is finite.
bool CheckLossesFinite(const std::vector<double>& losses, std::string* why);

/// The last timed epoch's mean loss is below the first epoch's.
bool CheckLossDecreased(const std::vector<double>& losses, std::string* why);

/// submitted = completed + shed + invalid, and equals the generator's
/// own count of resolved futures.
bool CheckAccounting(const serve::ServerStats& stats, int64_t resolved,
                     std::string* why);

/// Each returned score matches the independently recomputed one within
/// relative tolerance `rel_tol` (absolute floor `abs_tol`).
bool CheckScoresMatch(const std::vector<double>& returned,
                      const std::vector<double>& recomputed, double rel_tol,
                      double abs_tol, std::string* why);

/// `all_scores` holds an independently recomputed score for every
/// candidate; no candidate outside `top_k` may beat the k-th returned
/// one by more than `abs_tol`.
bool CheckNoBetterCandidate(const std::vector<int64_t>& top_k,
                            const std::vector<double>& all_scores,
                            double abs_tol, std::string* why);

/// Rank of the positive among its negatives with ties against the
/// positive: the benchmark's own ranking code, kept apart from
/// eval/metrics.cc on purpose.
int64_t OwnRank(double pos_score, const std::vector<double>& neg_scores);

/// Full-ranking rank: 1 + #{items not excluded, not the positive, whose
/// score is >= the positive's}.
int64_t OwnFullRank(const std::vector<double>& scores,
                    const std::vector<uint8_t>& excluded, int64_t pos_item);

/// MRR@cutoff and NDCG@cutoff recomputed from ranks must equal the
/// evaluator's report (same summation order, so exactly up to `tol`).
bool CheckReportMatchesRanks(const RankingReport& report,
                             const std::vector<int64_t>& ranks,
                             int64_t cutoff, double tol, std::string* why);

/// A trained model beats random ranking: MRR@10 over 10 candidates with
/// a random scorer has expectation H(10)/10.
bool CheckBeatsRandom(double mrr10, std::string* why);
double RandomMrr10();

/// |a ∩ b| / |b| (b non-empty).
double TopKOverlap(const std::vector<int64_t>& a,
                   const std::vector<int64_t>& b);

/// Mean top-K overlap with brute force stays at or above `floor`.
bool CheckOverlapFloor(double mean_overlap, double floor, std::string* why);

/// Every LoadVersion succeeded and the pool counts exactly the swaps
/// issued (plus the first install).
bool CheckSwaps(int64_t issued, int64_t failed_loads, int64_t pool_swaps,
                std::string* why);

/// Feeds every check a good and a corrupted output; returns the number
/// of checks that did not behave (0 = all pass good input and reject
/// the corruption). Prints one line per case.
int RunSelfTest();

}  // namespace mgbr::perfbench

#endif  // MGBR_PERFBENCH_CHECKS_H_
