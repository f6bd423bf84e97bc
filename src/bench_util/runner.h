// Query-set runners: execute one discovery system over a set of generated
// queries and aggregate the metrics the paper reports (runtime, precision
// mean ± std, FP/TP row counts, PL items fetched).
//
// All systems run through a mate::Session: MATE itself goes through the
// validated Session::DiscoverBatch path, the baselines fan out over the
// session's long-lived pool via Session::RunBatch (sharing threads but
// never MATE's result cache). Benches that measure runtime should open
// their session with cache_bytes = 0 so every query pays full cost.

#ifndef MATE_BENCH_UTIL_RUNNER_H_
#define MATE_BENCH_UTIL_RUNNER_H_

#include <string>
#include <vector>

#include "baselines/josie.h"
#include "baselines/mcr.h"
#include "core/mate.h"
#include "core/session.h"
#include "workload/query_gen.h"

namespace mate {

enum class SystemKind { kMate, kScr, kMcr, kScrJosie, kMcrJosie };

std::string_view SystemKindName(SystemKind kind);

struct QuerySetMetrics {
  std::string label;
  size_t queries = 0;
  double total_runtime_s = 0.0;
  double avg_runtime_s = 0.0;
  double avg_precision = 0.0;
  double std_precision = 0.0;
  uint64_t pl_items_fetched = 0;
  uint64_t rows_checked = 0;
  uint64_t rows_sent_to_verification = 0;
  uint64_t tp_rows = 0;
  uint64_t fp_rows = 0;
  double avg_top1_joinability = 0.0;
  /// Sum over queries of the top-k joinability scores (used by agreement
  /// checks between systems).
  int64_t topk_score_sum = 0;
  /// Batch-level instrumentation: end-to-end wall time (lower than
  /// total_runtime_s on a multi-threaded run), latency percentiles, thread
  /// count, cache traffic.
  BatchStats batch;
};

/// Runs `kind` over all `queries` on `session`'s pool; `josie` may be null
/// unless kind is a JOSIE variant. Results and counter-based metrics are
/// identical at any thread count. Fails only on invalid query specs.
Result<QuerySetMetrics> RunSystem(SystemKind kind, Session& session,
                                  const JosieIndex* josie,
                                  const std::vector<QueryCase>& queries,
                                  int k, std::string label);

/// Runs MATE with explicit options (hash sweeps, ablations, init-column
/// strategies) through Session::DiscoverBatch.
Result<QuerySetMetrics> RunMateWithOptions(
    Session& session, const std::vector<QueryCase>& queries,
    const DiscoveryOptions& options, std::string label);

/// Bench-binary convenience: unwraps or prints the error and exits(1).
QuerySetMetrics RunOrDie(Result<QuerySetMetrics> result);

/// Ditto for opening a session in a bench binary.
Session OpenOrDie(SessionOptions options);

/// True iff both runs returned the same top-k lists (table ids,
/// joinability scores, and column mappings) for every query — the
/// bit-identical check the determinism demos and the cache bench enforce.
bool SameTopK(const std::vector<DiscoveryResult>& a,
              const std::vector<DiscoveryResult>& b);

}  // namespace mate

#endif  // MATE_BENCH_UTIL_RUNNER_H_
