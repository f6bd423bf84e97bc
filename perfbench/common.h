// Shared machinery of the repository benchmark (perfbench): arguments,
// timing and percentile helpers, the benchmark-side span log, the metric
// report, lake set-up, reference and oracle checks, per-layer accounting
// from Discover's own spans, and the §5.4 maintenance batches.
//
// The benchmark calls only the library's public API and times those calls
// from outside. The only spans it reads from inside the library are the
// ones Session::Discover records into a QueryTrace handed over through
// QuerySpec::trace.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"
#include "obs/trace.h"
#include "workload/scenarios.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Lake scale (WorkloadConfig::scale); <= 0 keeps the workload default.
  double scale = 0.0;
  /// Where the Chrome trace and the saved lake files go.
  std::string out_dir = ".bench_build/out";
  std::string commit = "unknown";
};

/// Nearest-rank percentile (p in [0, 100]); 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Load threads and session pool width: min(4, hardware concurrency).
unsigned Workers();

/// Peak resident set of the process so far, MB (getrusage).
double PeakRssMb();

/// While alive, pins the calling thread to the CPU it runs on; threads it
/// starts meanwhile inherit the pin. Restores the previous affinity when
/// destroyed.
class PinToOneCpu {
 public:
  PinToOneCpu();
  ~PinToOneCpu();
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;
  /// The CPU pinned to, or -1 when pinning failed (the run goes on
  /// unpinned).
  int cpu() const { return cpu_; }

 private:
  cpu_set_t saved_;
  int cpu_ = -1;
};

/// Benchmark-side spans, kept in memory and written as one Chrome trace at
/// the end. A disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void Add(const std::string& name, Clock::time_point start,
           Clock::time_point end);
  /// Copies the library-side spans of one query, placed at `trace_start`
  /// (when its QueryTrace was created). Only the first kMaxQueryTraces
  /// are kept, which bounds the file size.
  void AddQueryTrace(const mate::QueryTrace& trace,
                     Clock::time_point trace_start);
  mate::Status WriteChromeTrace(const std::string& path) const;

  static constexpr size_t kMaxQueryTraces = 64;

 private:
  struct Event {
    std::string name;
    uint64_t start_us = 0;
    uint64_t duration_us = 0;
    uint64_t pid = 0;
    uint64_t tid = 0;
  };
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  size_t query_traces_ = 0;
  std::vector<Event> events_;
};

/// Runs `fn` and returns its wall seconds; records a span when `log` is on.
template <typename Fn>
double Timed(SpanLog* log, const char* name, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  if (log->enabled()) log->Add(name, start, end);
  return SecondsBetween(start, end);
}

/// Every metric the benchmark reports, with its unit. The end-to-end set
/// is printed without tracing, the per-layer set with tracing; both lists
/// match BENCHMARK.json.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// The metrics, verdict and operation counts of one run.
class Report {
 public:
  void Set(const std::string& name, double value);
  /// Metrics of a layer this workload does not exercise: reported as 0.
  void NotApplicable(const std::vector<std::string>& names);
  /// Marks the run incorrect (wrong result or error status); `what` goes
  /// to stderr.
  void Fail(const std::string& what);
  /// Counts one timed operation. Failed ones are wrong or error results,
  /// which also Fail the run, and load sheds, which do not.
  void Count(bool ok);
  bool correct() const { return correct_; }
  /// The final JSON line with the end-to-end (trace = false) or per-layer
  /// metrics. Returns false and names the gap on stderr when one is unset.
  bool ResultLine(bool trace, std::string* line) const;

 private:
  std::map<std::string, double> values_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Run metadata, printed as one JSON line ahead of the result line.
class RunInfo {
 public:
  explicit RunInfo(const Args& args);
  void Add(const std::string& key, const std::string& json_value);
  void Add(const std::string& key, double value);
  std::string Line() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---------------------------------------------------------------- queries

/// One distinct query of a workload's pool and its expected top-k.
struct PoolQuery {
  const mate::QueryCase* qc = nullptr;
  std::string set;       // query-set name, e.g. "OD (10000)"
  size_t set_index = 0;  // position of the set in the workload
  std::vector<mate::TableResult> reference;
};

std::vector<PoolQuery> QueryPool(const mate::Workload& workload);

mate::QuerySpec SpecFor(const PoolQuery& q);

/// Result size of every query in the benchmark.
inline constexpr int kTopK = 10;

bool SameTopK(const std::vector<mate::TableResult>& got,
              const std::vector<mate::TableResult>& want);

/// Serial top-k of `q` through the plain MateSearch path (references,
/// outside timed windows).
std::vector<mate::TableResult> SerialTopK(const mate::Corpus& corpus,
                                          const mate::InvertedIndex& index,
                                          const PoolQuery& q);

/// Oracle top-k over the whole lake: BruteForceJoinability on every table,
/// reduced to the live rows that hold all values of some query key combo
/// and the columns holding key values in those rows (nothing outside that
/// projection can match under any mapping), ranked like MATE ranks.
std::vector<mate::TableResult> OracleTopK(const mate::Corpus& corpus,
                                          const PoolQuery& q);

/// Compares the references of pool[i] for i in `sample` with the oracle.
/// Returns the seconds spent.
double CheckOracle(const mate::Corpus& corpus,
                   const std::vector<PoolQuery>& pool,
                   const std::vector<size_t>& sample, Report* report);

/// `count` distinct pool positions, seeded.
std::vector<size_t> SamplePositions(size_t pool_size, size_t count,
                                    uint64_t seed);

// ------------------------------------------------------------------ setup

/// A generated lake plus its serialized corpus image, so set-up can be
/// repeated from the same starting point.
struct Lake {
  mate::Workload workload;
  std::string corpus_image;
  size_t tables = 0;
  size_t cells = 0;
};

/// Seed of every generated lake. The lake and its query pool are a fixed
/// dataset, like the paper's corpora; a run's --seed draws what varies
/// between runs: query order and popularity, tenant streams, the oracle
/// sample and the maintenance targets. Lakes drawn per run seed differ so
/// much in per-query cost (up to 2x in the mean of a query set at scale
/// 0.25) that no metric would repeat within its bound.
inline constexpr uint64_t kLakeSeed = 42;

/// kind: "OD" (MakeOpenDataWorkload) or "WT" (MakeWebTablesWorkload),
/// generated from kLakeSeed.
Lake MakeLake(const std::string& kind, double scale, size_t queries_per_set);

/// A fresh, fully materialized copy of the lake's corpus (untimed).
mate::Corpus CopyCorpus(const Lake& lake);

/// Seconds per layer of one set-up repetition.
struct SetupTimes {
  double build_s = 0.0;
  double save_s = 0.0;
  double open_s = 0.0;
  double ready_s = 0.0;
  double server_start_s = 0.0;
  double Total() const {
    return build_s + save_s + open_s + ready_s + server_start_s;
  }
};

/// Set-up repetitions per run (setup_s is their median): five for the
/// open-data lake, whose set-up takes over half a second, and nine for the
/// web-table lake, whose quicker set-up needs more samples to steady its
/// median.
inline constexpr int kSetupRepsOd = 5;
inline constexpr int kSetupRepsWt = 9;

/// Builds the index (on Workers() threads) over a fresh copy of the lake's
/// corpus and opens an in-memory session adopting both, with a pool of
/// `session_threads`.
mate::Session OpenInMemory(const Lake& lake, unsigned session_threads,
                           size_t cache_bytes, SpanLog* log,
                           SetupTimes* times);

/// Sets setup_s and the per-layer set-up metrics from the repetitions.
void EmitSetup(const std::vector<SetupTimes>& reps, Report* report);

/// Sets the storage metrics of a lazily opened session from its corpus
/// residency: tables and cell MB materialized since Open, resident MB.
void EmitStorage(const mate::Session& session, Report* report);

/// Sets index_mb, index.posting_mb and index.superkey_mb.
void EmitIndexSize(const mate::InvertedIndex& index, Report* report);

// ------------------------------------------------- per-layer accounting

/// Per-query work and phase times gathered from Discover's own spans plus
/// the wall time the benchmark measured around the call.
struct LayerTotals {
  size_t queries = 0;
  double wall_us = 0;
  double covered_us = 0;  // main-line phase spans (coverage numerator)
  double validate_us = 0, cache_lookup_us = 0, cache_insert_us = 0;
  double prepare_us = 0, fetch_us = 0, evaluate_us = 0, merge_us = 0;
  double row_loop_us = 0;
  double skew_sum = 0;  // max/mean evaluate_shard time per fanned-out query
  size_t skew_queries = 0;
  double shards = 0, fanout = 0;
  mate::DiscoveryStats stats;  // summed work counters

  void Add(const mate::QueryTrace& trace, const mate::DiscoveryResult& result,
           double wall_us);
  /// Sets the executor, joinability, hash and session-phase metrics (per
  /// query means) and the span coverage.
  void Emit(Report* report) const;
  /// Sets only the fan-out metrics: shards used, fan-out threads, shard
  /// skew, and the evaluate and merge phases.
  void EmitFanout(Report* report) const;
};

// ------------------------------------------------------------ maintenance

/// Latencies of §5.4 maintenance operations, microseconds.
struct WriteSamples {
  std::vector<double> op_us;  // whole operation: corpus edit + index call
  std::map<std::string, std::vector<double>> index_us;  // index call only
  std::vector<double> invalidate_us;                    // InvalidateCache

  /// Sets write_p50_us, write_tail_us (at `tail_percentile`), the
  /// per-call index medians and the invalidation median.
  void Emit(Report* report, double tail_percentile) const;
};

/// A fixed, net-neutral batch of §5.4 edits chosen from the pool's
/// references. Apply adds a table copied from one query's key rows
/// (AddTable + InsertTable), appends rows holding query combos to result
/// tables (InsertRow) and overwrites result cells (UpdateCell); Revert
/// restores the cells (UpdateCell), deletes the rows (DeleteRow) and the
/// table (DeleteTable). After Revert the lake answers every query as
/// before Apply. After Apply it answers like after the first Apply, with
/// the added table's id moved (it always takes the highest id).
class EditBatch {
 public:
  /// Row inserts and cell overwrites per batch, each aimed at the best
  /// result table of a different query where the pool allows.
  static constexpr size_t kTargets = 6;

  EditBatch(const mate::Corpus& corpus, const std::vector<PoolQuery>& pool,
            uint64_t seed);
  /// Each edit counts one attempted write in `report`.
  void Apply(mate::Session* session, WriteSamples* samples, SpanLog* log,
             Report* report);
  void Revert(mate::Session* session, WriteSamples* samples, SpanLog* log,
              Report* report);
  mate::TableId added_table() const { return added_table_; }
  /// Pool positions whose top-k an Apply can change.
  const std::vector<size_t>& touched_queries() const { return touched_; }

 private:
  struct RowInsert {
    mate::TableId table = 0;
    std::vector<std::string> cells;
    mate::RowId row = 0;  // set by Apply
  };
  struct CellEdit {
    mate::TableId table = 0;
    mate::RowId row = 0;
    mate::ColumnId column = 0;
    std::string value;
    std::string old_value;  // read by Apply
  };
  mate::Table new_table_;
  std::vector<RowInsert> inserts_;
  std::vector<CellEdit> edits_;
  std::vector<size_t> touched_;
  mate::TableId added_table_ = mate::kInvalidTableId;
};

/// `first` (recorded after the first Apply, which added `first_added`)
/// with the added table's id replaced by `added`.
std::vector<mate::TableResult> RelabelAdded(
    std::vector<mate::TableResult> first, mate::TableId first_added,
    mate::TableId added);

/// Runs one Discover of `q` on `session` under `tenant`, counts it in
/// `report` as failed unless it returns `expected`, and returns its wall
/// milliseconds. With `layers`, a QueryTrace rides along and is accounted.
/// `intra_query_threads` is QuerySpec::intra_query_threads (0 = auto
/// fan-out, 1 = serial).
double TimedDiscover(mate::Session* session, const PoolQuery& q,
                     const std::vector<mate::TableResult>& expected,
                     const std::string& tenant, LayerTotals* layers,
                     SpanLog* log, Report* report,
                     unsigned intra_query_threads = 0);

/// InvalidateCache, timed into `samples`.
void InvalidateCache(mate::Session* session, WriteSamples* samples,
                     SpanLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
