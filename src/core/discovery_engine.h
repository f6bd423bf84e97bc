// Multi-threaded batch discovery: RunDiscoveryBatch fans a set of
// independent queries out over a work-stealing thread pool and aggregates
// the per-query stats the paper reports over query *sets* (Fig. 4-6,
// Tables 1-3). It is generic over any per-query callable — mate::Session
// runs its batches and the bench runners' baseline systems through it —
// and results land in slots indexed by query position, so a batch is
// bit-identical to the serial loop at any thread count (timings aside).

#ifndef MATE_CORE_DISCOVERY_ENGINE_H_
#define MATE_CORE_DISCOVERY_ENGINE_H_

#include <functional>
#include <string>
#include <vector>

#include "core/mate.h"

namespace mate {

class ThreadPool;

/// Aggregate instrumentation over one batch. Counter sums are accumulated
/// in query-index order, so they are deterministic at any thread count;
/// wall/latency figures are the only nondeterministic fields.
struct BatchStats {
  size_t queries = 0;
  unsigned num_threads = 1;

  double wall_seconds = 0.0;         // end-to-end batch time
  double total_query_seconds = 0.0;  // sum of per-query runtimes

  // Per-query latency distribution (seconds), computed through a
  // LatencyHistogram over integer microseconds — the same HDR layout and
  // nearest-rank rule (PercentileSorted's definition) the serving layer
  // reports, so the two surfaces can never disagree. max is exact; the
  // percentiles carry the histogram's bounded relative error (at most
  // 1/16 above the sorted-vector answer). Defined for 0/1/2-query batches
  // too. A cached query contributes the runtime recorded when its result
  // was originally computed, not its (near-zero) serving time;
  // wall_seconds is the honest end-to-end figure.
  double latency_p50_s = 0.0;
  double latency_p90_s = 0.0;
  double latency_p99_s = 0.0;
  double latency_max_s = 0.0;

  // Work counters summed over queries.
  uint64_t pl_items_fetched = 0;
  uint64_t rows_checked = 0;
  uint64_t rows_sent_to_verification = 0;
  uint64_t rows_true_positive = 0;

  // Result-cache traffic for this batch (always 0 outside a cache-enabled
  // mate::Session). A duplicate query inside one batch counts as a hit:
  // it is served by copying the leader's result instead of recomputing.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  // Intra-query parallelism traffic (core/query_executor.h): queries that
  // ran the sharded executor (shards_used > 1), the shards they fanned out
  // over in total, and the widest per-query fan-out seen. A cache hit
  // reports the shape recorded when its result was originally computed.
  uint64_t intra_parallel_queries = 0;
  uint64_t intra_shards_total = 0;
  uint64_t max_fanout_threads = 1;

  // Corpus residency traffic. tables_materialized / cell_bytes_materialized
  // sum the queries' materialization work; corpus_evictions /
  // corpus_evicted_bytes are the budget evictions the batch's idle points
  // triggered (always 0 outside a budgeted mate::Session, which fills them
  // from the residency deltas around the batch).
  uint64_t tables_materialized = 0;
  uint64_t cell_bytes_materialized = 0;
  uint64_t corpus_evictions = 0;
  uint64_t corpus_evicted_bytes = 0;

  double QueriesPerSecond() const {
    return wall_seconds > 0.0 ? static_cast<double>(queries) / wall_seconds
                              : 0.0;
  }

  std::string ToString() const;
};

struct BatchResult {
  /// results[i] corresponds to the i-th input query.
  std::vector<DiscoveryResult> results;
  BatchStats stats;
};

/// Runs `run_one(i)` for i in [0, num_queries) on `pool` and aggregates
/// BatchStats. `run_one` must be safe to call concurrently. The pool must
/// be idle; the call submits, waits, and leaves it idle again.
BatchResult RunDiscoveryBatch(
    size_t num_queries,
    const std::function<DiscoveryResult(size_t)>& run_one, ThreadPool* pool);

/// Folds per-query results (in query-index order) plus a measured wall time
/// into BatchStats — shared by RunDiscoveryBatch and Session's cached
/// batch path.
BatchStats AggregateBatchStats(const std::vector<DiscoveryResult>& results,
                               double wall_seconds, unsigned num_threads);

}  // namespace mate

#endif  // MATE_CORE_DISCOVERY_ENGINE_H_
