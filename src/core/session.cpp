#include "core/session.h"

#include <algorithm>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/query_executor.h"
#include "hash/md5.h"
#include "index/index_io.h"
#include "storage/corpus_io.h"
#include "util/coding.h"
#include "util/simd.h"
#include "util/stopwatch.h"

namespace mate {

namespace {

// Cross-checks that the index covers exactly the corpus's tables and rows
// — the cheap shape invariant that catches a corpus/index file mix-up at
// Open instead of as an out-of-bounds probe mid-query. `rows_per_table`
// comes from the super keys for in-memory indexes and from the file's
// shape header for phased loads (where the super keys are not resident
// yet).
Status ValidateShapeMatchesCorpus(const Corpus& corpus,
                                  const std::vector<uint64_t>& rows_per_table) {
  if (rows_per_table.size() != corpus.NumTables()) {
    return Status::Corruption(
        "index covers " + std::to_string(rows_per_table.size()) +
        " tables but the corpus has " + std::to_string(corpus.NumTables()));
  }
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    // Shape accessor: cross-validation against a lazily opened corpus must
    // parse zero cells (both sides come from their files' shape headers).
    if (rows_per_table[t] != corpus.table_num_rows(t)) {
      return Status::Corruption(
          "index table " + std::to_string(t) + " has " +
          std::to_string(rows_per_table[t]) + " super keys but the corpus "
          "table has " + std::to_string(corpus.table_num_rows(t)) + " rows");
    }
  }
  return Status::OK();
}

Status ValidateIndexMatchesCorpus(const Corpus& corpus,
                                  const InvertedIndex& index) {
  return ValidateShapeMatchesCorpus(corpus, index.superkeys().RowCounts());
}

}  // namespace

// Phase-2 streaming state shared between the session and its loader
// task/thread. The task captures the shared_ptr (so the state survives
// Session moves) and writes into the index through the PhasedIndexLoad's
// internal pointer — stable because the index lives behind a unique_ptr.
// `status` is written before the latch counts down, so readers returning
// from Wait observe it.
struct Session::PendingLoad {
  explicit PendingLoad(PhasedIndexLoad load_in) : load(std::move(load_in)) {}
  ~PendingLoad() {
    if (thread.joinable()) thread.join();
  }

  PhasedIndexLoad load;
  Latch done{1};
  Status status;
  std::thread thread;  // set when the pool is serial (inline Submit)
};

// Background corpus-warmer state. The warmer callable co-owns the table
// store (Corpus::MakeWarmer), so materialization stays valid across Session
// moves; the latch + join give QuiesceLoad a reliable drain. Always a
// dedicated thread: pool Wait() is global, and a query's shard barrier must
// never absorb a cold giant table's parse.
struct Session::PendingWarm {
  explicit PendingWarm(std::function<Status()> warmer_in)
      : warmer(std::move(warmer_in)) {}
  ~PendingWarm() {
    if (thread.joinable()) thread.join();
  }

  std::function<Status()> warmer;
  Latch done{1};
  Status status;
  std::thread thread;
};

Session::~Session() { QuiesceLoad(); }

Session::Session(Session&&) noexcept = default;

Session& Session::operator=(Session&& other) noexcept {
  if (this != &other) {
    // Our loader (if any) must be fully stopped before our index goes
    // away; the pool's destructor only covers the pool-task flavor.
    QuiesceLoad();
    corpus_ = std::move(other.corpus_);
    index_ = std::move(other.index_);
    pool_ = std::move(other.pool_);
    cache_ = std::move(other.cache_);
    corpus_stats_ = std::move(other.corpus_stats_);
    hash_family_ = other.hash_family_;
    caller_hash_ = other.caller_hash_;
    build_report_ = std::move(other.build_report_);
    pending_ = std::move(other.pending_);
    warm_ = std::move(other.warm_);
  }
  return *this;
}

void Session::QuiesceLoad() const {
  if (pending_ != nullptr) {
    pending_->done.Wait();
    if (pending_->thread.joinable()) pending_->thread.join();
  }
  if (warm_ != nullptr) {
    warm_->done.Wait();
    if (warm_->thread.joinable()) warm_->thread.join();
  }
}

Status Session::WaitUntilReady() const {
  if (pending_ == nullptr) return Status::OK();
  pending_->done.Wait();
  return pending_->status;
}

bool Session::index_ready() const {
  return pending_ == nullptr || pending_->done.TryWait();
}

Status Session::WaitCorpusResident() const {
  if (warm_ != nullptr) {
    warm_->done.Wait();
    return warm_->status;
  }
  // No warmer running (built/adopted corpora are already resident, this
  // returns immediately; warm_corpus=false sessions materialize here).
  return corpus_.MaterializeAll();
}

bool Session::corpus_resident() const { return corpus_.fully_resident(); }

Result<Session> Session::Open(SessionOptions options) {
  Session session;

  // ---- option validation (no I/O yet) -------------------------------
  if (options.corpus.has_value() && !options.corpus_path.empty()) {
    return Status::InvalidArgument(
        "SessionOptions sets both corpus and corpus_path; pick one");
  }
  if (!options.corpus.has_value() && options.corpus_path.empty()) {
    return Status::InvalidArgument(
        "SessionOptions needs a corpus source (corpus or corpus_path)");
  }
  const int index_sources = (options.index != nullptr ? 1 : 0) +
                            (!options.index_path.empty() ? 1 : 0) +
                            (options.build_index ? 1 : 0);
  if (index_sources > 1) {
    return Status::InvalidArgument(
        "SessionOptions sets more than one of index, index_path, and "
        "build_index; pick one");
  }

  // Kernel dispatch is process-global; the knob only ever *narrows* to the
  // scalar reference (a false value must not undo MATE_FORCE_SCALAR).
  if (options.force_scalar_kernels) simd::ForceScalar(true);

  session.pool_ = std::make_unique<ThreadPool>(options.num_threads);

  // ---- index phase 1, before the corpus is read ---------------------
  // A phased load kicks off its posting/super-key streaming here so phase
  // 2 overlaps the corpus deserialization below — the two big sequential
  // reads of the old blocking Open. Every query path blocks on `done`
  // before touching the index, and QuiesceLoad covers teardown (including
  // the early error returns further down: ~Session waits the latch).
  if (!options.index_path.empty()) {
    MATE_ASSIGN_OR_RETURN(PhasedIndexLoad load,
                          PhasedIndexLoad::Begin(options.index_path));
    session.hash_family_ = load.hash_family();
    session.index_ = load.TakeIndex();
    auto pending = std::make_shared<PendingLoad>(std::move(load));
    session.pending_ = pending;
    auto run = [state = pending] {
      state->status = state->load.Finish();
      state->done.CountDown();
    };
    if (session.pool_->num_threads() > 1) {
      session.pool_->Submit(std::move(run));
    } else {
      // A serial pool runs Submit inline on the caller; a dedicated
      // loader thread keeps Open non-blocking even at num_threads = 1.
      pending->thread = std::thread(std::move(run));
    }
  }

  // ---- corpus (overlapped by phase 2 of an index load) --------------
  // A path-based load is *lazy*: mmap + stats header + table directory
  // only, so the shape cross-validation below parses zero cells and Open's
  // corpus cost is the directory walk.
  bool corpus_file_stats = false;
  CorpusStats corpus_header_stats;
  if (options.corpus.has_value()) {
    session.corpus_ = std::move(*options.corpus);
  } else {
    MATE_ASSIGN_OR_RETURN(
        session.corpus_,
        OpenCorpusLazy(options.corpus_path, &corpus_header_stats,
                       &corpus_file_stats));
  }

  // ---- remaining index sources + cross-validation -------------------
  if (options.index != nullptr) {
    session.index_ = std::move(options.index);
    session.hash_family_ = options.index_family;
    if (options.validate) {
      MATE_RETURN_IF_ERROR(
          ValidateIndexMatchesCorpus(session.corpus_, *session.index_));
    }
  } else if (!options.index_path.empty()) {
    if (options.validate) {
      // Against the shape header parsed in phase 1 — the super keys may
      // still be streaming.
      MATE_RETURN_IF_ERROR(ValidateShapeMatchesCorpus(
          session.corpus_, session.pending_->load.rows_per_table()));
    }
  } else if (options.build_index) {
    MATE_ASSIGN_OR_RETURN(
        session.index_,
        BuildIndexWithReport(session.corpus_, options.build_options,
                             &session.build_report_));
    session.hash_family_ = options.build_options.hash_family;
    if (options.validate) {
      MATE_RETURN_IF_ERROR(
          ValidateIndexMatchesCorpus(session.corpus_, *session.index_));
    }
  }
  // Stats priority: what the index's hash was built with (on every index
  // path: phase 1 of a load set them before the loader task started, so
  // reading them does not race it), else the corpus file header's persisted
  // stats (satisfying a lazy open without a scan), else the full
  // ComputeStats scan — which materializes a lazy corpus, making it
  // effectively eager.
  bool have_stats = false;
  if (session.index_ != nullptr &&
      session.index_->corpus_stats().num_cells > 0) {
    session.corpus_stats_ = session.index_->corpus_stats();
    have_stats = true;
  }
  if (!have_stats && corpus_file_stats) {
    session.corpus_stats_ = corpus_header_stats;
    have_stats = true;
  }
  if (!have_stats) session.corpus_stats_ = session.corpus_.ComputeStats();

  // ---- corpus residency budget ---------------------------------------
  // Armed before any query can materialize tables. The immediate evict
  // covers opens whose setup already materialized cells (the ComputeStats
  // fallback scan above): the session must not start its life over budget.
  if (options.corpus_budget_bytes > 0) {
    session.corpus_.SetBudget(options.corpus_budget_bytes);
    session.corpus_.EvictToBudget();
  }

  if (options.cache_bytes > 0) {
    session.cache_ = std::make_unique<ResultCache>(options.cache_bytes);
  }

  // ---- background corpus warmer (last: no error return may follow) ---
  // Spawned only when tables are actually cold; built/adopted corpora (and
  // lazy ones fully drained by a stats scan above) skip it.
  // A residency budget also skips it: warming the whole lake just to evict
  // it back down wastes the parse, and on-demand (columnar) materialization
  // is the budgeted session's whole point.
  if (options.warm_corpus && options.corpus_budget_bytes == 0 &&
      !session.corpus_.fully_resident()) {
    auto warm = std::make_shared<PendingWarm>(session.corpus_.MakeWarmer());
    session.warm_ = warm;
    warm->thread = std::thread([state = warm] {
      state->status = state->warmer();
      state->done.CountDown();
    });
  }
  return session;
}

Status Session::ValidateQuery(const QuerySpec& spec) const {
  if (spec.table == nullptr) {
    return Status::InvalidArgument("QuerySpec.table is null");
  }
  if (spec.key_columns.empty()) {
    return Status::InvalidArgument("QuerySpec.key_columns is empty");
  }
  std::unordered_set<ColumnId> seen;
  for (ColumnId c : spec.key_columns) {
    if (c >= spec.table->NumColumns()) {
      return Status::InvalidArgument(
          "key column " + std::to_string(c) + " out of range (query table '" +
          spec.table->name() + "' has " +
          std::to_string(spec.table->NumColumns()) + " columns)");
    }
    if (!seen.insert(c).second) {
      return Status::InvalidArgument("duplicate key column " +
                                     std::to_string(c));
    }
  }
  if (spec.options.k <= 0) {
    return Status::InvalidArgument(
        "k must be positive, got " + std::to_string(spec.options.k));
  }
  for (TableId t : spec.options.exclude_tables) {
    if (t >= corpus_.NumTables()) {
      return Status::InvalidArgument(
          "exclude_tables id " + std::to_string(t) +
          " not in corpus (" + std::to_string(corpus_.NumTables()) +
          " tables)");
    }
  }
  for (TableId t : spec.options.restrict_tables) {
    if (t >= corpus_.NumTables()) {
      return Status::InvalidArgument(
          "restrict_tables id " + std::to_string(t) +
          " not in corpus (" + std::to_string(corpus_.NumTables()) +
          " tables)");
    }
  }
  return Status::OK();
}

std::string Session::FingerprintQuery(const QuerySpec& spec) const {
  // Only result-affecting state enters the stream. Execution-only knobs —
  // QuerySpec::intra_query_threads / intra_query_shards and the session's
  // pool width — are deliberately absent: the executor guarantees
  // bit-identical top_k at every setting, so the same logical query must
  // hit the cache no matter how it is parallelized.
  std::string stream;
  stream.reserve(256);
  PutVarint32(&stream, static_cast<uint32_t>(spec.options.k));
  stream.push_back(static_cast<char>(spec.options.init_strategy));
  stream.push_back(static_cast<char>((spec.options.use_row_filter ? 1 : 0) |
                                     (spec.options.use_table_filters ? 2
                                                                     : 0)));
  // Exclusion/restriction are set-semantics; sort so permutations hit.
  for (const std::vector<TableId>* ids :
       {&spec.options.exclude_tables, &spec.options.restrict_tables}) {
    std::vector<TableId> sorted(*ids);
    std::sort(sorted.begin(), sorted.end());
    PutVarint64(&stream, sorted.size());
    for (TableId t : sorted) PutVarint32(&stream, t);
  }
  // Key-column *contents* (not column ids): discovery reads nothing else
  // from the query table, so content-identical key specs share results.
  const Table& table = *spec.table;
  PutVarint64(&stream, spec.key_columns.size());
  for (RowId r = 0; r < table.NumRows(); ++r) {
    if (table.IsRowDeleted(r)) continue;
    for (ColumnId c : spec.key_columns) {
      PutLengthPrefixed(&stream, table.cell(r, c));
    }
  }
  // Digest the unambiguous stream to a fixed 16-byte key: query tables can
  // run to 10^5+ rows, and storing/compare-probing multi-MB keys would eat
  // the cache budget and every map operation. A 128-bit digest keeps the
  // bit-identical-hit guarantee up to negligible collision probability.
  const Md5Digest digest = Md5(stream);
  return std::string(reinterpret_cast<const char*>(digest.bytes.data()),
                     digest.bytes.size());
}

DiscoveryResult Session::RunQuery(const QuerySpec& spec, bool intra_parallel) {
  // Roots the executor's phase spans under the attach parent — Discover
  // points it at its "discover" span; the batch path leaves the caller's
  // (usually no) attachment in place.
  ScopedSpan execute(spec.trace, "execute",
                     spec.trace != nullptr ? spec.trace->attach_parent()
                                           : QueryTrace::kNoParent);
  QueryExecutor executor(&corpus_, index_.get());
  ExecutorOptions exec;
  exec.intra_query_threads = intra_parallel ? spec.intra_query_threads : 1;
  exec.num_shards = intra_parallel ? spec.intra_query_shards : 0;
  exec.trace = spec.trace;
  exec.trace_parent = execute.id();
  return executor.Discover(*spec.table, spec.key_columns, spec.options, exec,
                           intra_parallel ? pool_.get() : nullptr);
}

Result<uint64_t> Session::EstimatePlItems(const QuerySpec& spec) const {
  if (!has_index()) {
    return Status::InvalidArgument(
        "session has no index; open with index_path, index, or build_index");
  }
  MATE_RETURN_IF_ERROR(ValidateQuery(spec));
  MATE_RETURN_IF_ERROR(WaitUntilReady());
  QueryExecutor executor(&corpus_, index_.get());
  return executor.EstimatePlItems(*spec.table, spec.key_columns,
                                  spec.options);
}

Result<DiscoveryResult> Session::Discover(const QuerySpec& spec) {
  QueryTrace* const trace = spec.trace;
  ScopedSpan discover(trace, "discover",
                      trace != nullptr ? trace->attach_parent()
                                       : QueryTrace::kNoParent);
  if (trace != nullptr) trace->SetAttachParent(discover.id());
  if (!has_index()) {
    return Status::InvalidArgument(
        "session has no index; open with index_path, index, or build_index");
  }
  {
    ScopedSpan span(trace, "validate", discover.id());
    MATE_RETURN_IF_ERROR(ValidateQuery(spec));
  }
  // The first query after a phased Open blocks here until postings and
  // super keys are hot (and surfaces any deferred load corruption). It
  // does NOT wait for corpus residency: candidate tables materialize on
  // demand, and a malformed cell blob — hit by this query or latched
  // earlier by the warmer — surfaces as the sticky corpus status instead
  // of a silently stubbed result.
  {
    ScopedSpan span(trace, "readiness_wait", discover.id());
    MATE_RETURN_IF_ERROR(WaitUntilReady());
    MATE_RETURN_IF_ERROR(corpus_.load_status());
  }
  if (cache_ == nullptr) {
    DiscoveryResult result = RunQuery(spec, /*intra_parallel=*/true);
    MATE_RETURN_IF_ERROR(corpus_.load_status());
    // Idle point: the query's shards have drained off the pool, so the
    // residency budget (no-op when unarmed) may reclaim what it parsed.
    corpus_.EvictToBudget();
    return result;
  }
  std::string key;
  DiscoveryResult result;
  bool hit = false;
  {
    ScopedSpan span(trace, "cache_lookup", discover.id());
    key = FingerprintQuery(spec);
    hit = cache_->Lookup(spec.tenant, key, &result);
  }
  if (hit) return result;
  result = RunQuery(spec, /*intra_parallel=*/true);
  // Re-check before caching: a result computed over a stub table must
  // neither be returned nor poison future hits.
  MATE_RETURN_IF_ERROR(corpus_.load_status());
  {
    ScopedSpan span(trace, "cache_insert", discover.id());
    cache_->Insert(spec.tenant, key, result);
  }
  corpus_.EvictToBudget();
  return result;
}

Result<BatchResult> Session::DiscoverBatch(
    const std::vector<QuerySpec>& specs) {
  if (!has_index()) {
    return Status::InvalidArgument(
        "session has no index; open with index_path, index, or build_index");
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    if (Status status = ValidateQuery(specs[i]); !status.ok()) {
      return Status::InvalidArgument("query " + std::to_string(i) + ": " +
                                     status.message());
    }
  }
  MATE_RETURN_IF_ERROR(WaitUntilReady());
  MATE_RETURN_IF_ERROR(corpus_.load_status());
  // The pool serves one parallelism axis at a time (its Wait() is global,
  // so shard fan-out cannot nest inside a query fan-out): a batch that
  // boils down to one uncached query routes it through the intra-query
  // executor; otherwise queries fan out and each runs serially.
  const auto run_serial = [this, &specs](size_t i) {
    return RunQuery(specs[i], /*intra_parallel=*/false);
  };
  const auto single_query_batch = [this](const QuerySpec& spec) {
    Stopwatch wall;
    BatchResult batch;
    batch.results.push_back(RunQuery(spec, /*intra_parallel=*/true));
    batch.stats = AggregateBatchStats(batch.results, wall.ElapsedSeconds(),
                                      pool_->num_threads());
    return batch;
  };
  // One idle-point eviction per batch, with the traffic it moved recorded
  // in the batch's stats (the deltas are this call's alone: the counters
  // are cumulative across the session).
  const auto evict_into = [this](BatchStats* stats) {
    const ResidencyStats before = corpus_.residency();
    corpus_.EvictToBudget();
    const ResidencyStats after = corpus_.residency();
    stats->corpus_evictions = after.evictions - before.evictions;
    stats->corpus_evicted_bytes = after.bytes_evicted - before.bytes_evicted;
  };
  if (cache_ == nullptr) {
    BatchResult batch = specs.size() == 1
                            ? single_query_batch(specs[0])
                            : RunBatch(specs.size(), run_serial);
    // Queries racing the warmer materialize tables on demand; any blob
    // corruption either side hit is latched — surface it, not a result
    // computed over a shape stub.
    MATE_RETURN_IF_ERROR(corpus_.load_status());
    evict_into(&batch.stats);
    return batch;
  }

  Stopwatch wall;
  BatchResult batch;
  batch.results.resize(specs.size());

  // Group by (tenant, fingerprint): one probe and at most one computation
  // per distinct query per partition; followers are copies and count as
  // hits. The tenant joins the grouping key — not the fingerprint — because
  // identical queries from different tenants probe different partitions.
  std::vector<std::string> keys(specs.size());
  std::vector<std::vector<size_t>> groups;  // first-appearance order
  {
    std::unordered_map<std::string, size_t> group_of;
    for (size_t i = 0; i < specs.size(); ++i) {
      keys[i] = FingerprintQuery(specs[i]);
      std::string group_key = specs[i].tenant;
      group_key.push_back('\0');
      group_key += keys[i];
      auto [it, inserted] = group_of.emplace(std::move(group_key),
                                             groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(i);
    }
  }

  uint64_t hits = 0, misses = 0;
  std::vector<size_t> leaders;  // first index of each group to compute
  for (const std::vector<size_t>& group : groups) {
    const size_t first = group.front();
    DiscoveryResult cached;
    if (cache_->Lookup(specs[first].tenant, keys[first], &cached)) {
      for (size_t i : group) batch.results[i] = cached;
      hits += group.size();
    } else {
      leaders.push_back(first);
      misses += 1;
      hits += group.size() - 1;
    }
  }

  if (!leaders.empty()) {
    BatchResult computed;
    if (leaders.size() == 1) {
      computed.results.push_back(
          RunQuery(specs[leaders[0]], /*intra_parallel=*/true));
    } else {
      computed = RunDiscoveryBatch(
          leaders.size(), [&](size_t j) { return run_serial(leaders[j]); },
          pool_.get());
    }
    // Before any result is cached or distributed: results computed over a
    // corrupt (stubbed) table must not be served or poison the cache.
    MATE_RETURN_IF_ERROR(corpus_.load_status());
    size_t j = 0;
    for (const std::vector<size_t>& group : groups) {
      const size_t first = group.front();
      if (j < leaders.size() && leaders[j] == first) {
        const DiscoveryResult& result = computed.results[j];
        for (size_t i : group) batch.results[i] = result;
        cache_->Insert(specs[first].tenant, keys[first], result);
        ++j;
      }
    }
  }

  batch.stats = AggregateBatchStats(batch.results, wall.ElapsedSeconds(),
                                    pool_->num_threads());
  batch.stats.cache_hits = hits;
  batch.stats.cache_misses = misses;
  evict_into(&batch.stats);
  return batch;
}

BatchResult Session::RunBatch(
    size_t n, const std::function<DiscoveryResult(size_t)>& run_one) {
  return RunDiscoveryBatch(n, run_one, pool_.get());
}

void Session::InvalidateCache() {
  if (cache_ != nullptr) cache_->Clear();
}

void Session::InvalidateCache(std::string_view tenant) {
  if (cache_ != nullptr) cache_->ClearPartition(tenant);
}

ResultCacheStats Session::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : ResultCacheStats{};
}

ResultCacheStats Session::cache_partition_stats(
    std::string_view tenant) const {
  return cache_ != nullptr ? cache_->partition_stats(tenant)
                           : ResultCacheStats{};
}

void Session::ConfigureCachePartition(std::string_view tenant, size_t bytes) {
  if (cache_ != nullptr) cache_->ConfigurePartition(tenant, bytes);
}

void Session::ConfigureCache(size_t bytes) {
  cache_ = bytes > 0 ? std::make_unique<ResultCache>(bytes) : nullptr;
}

Status Session::ResetHash(HashFamily family, size_t hash_bits) {
  const bool use_stats = corpus_stats_.num_cells > 0;
  std::unique_ptr<RowHashFunction> hash =
      MakeRowHash(family, hash_bits, use_stats ? &corpus_stats_ : nullptr);
  if (hash == nullptr) {
    return Status::InvalidArgument("unsupported hash configuration");
  }
  MATE_RETURN_IF_ERROR(ResetHash(family, std::move(hash)));
  index_->set_corpus_stats(use_stats ? corpus_stats_ : CorpusStats{});
  caller_hash_ = false;
  return Status::OK();
}

Status Session::ResetHash(HashFamily family,
                          std::unique_ptr<RowHashFunction> hash) {
  if (!has_index()) {
    return Status::InvalidArgument("session has no index to re-key");
  }
  MATE_RETURN_IF_ERROR(WaitUntilReady());
  // Re-keying scans every cell: make the corpus resident first and refuse
  // to hash shape stubs left behind by a corrupt blob.
  MATE_RETURN_IF_ERROR(WaitCorpusResident());
  MATE_RETURN_IF_ERROR(
      index_->ResetHash(corpus_, std::move(hash), pool_->num_threads()));
  hash_family_ = family;
  caller_hash_ = true;
  InvalidateCache();
  // The re-key scan materialized every cell; shed back to the budget.
  corpus_.EvictToBudget();
  return Status::OK();
}

Status Session::Save(const std::string& corpus_path,
                     const std::string& index_path) const {
  if (caller_hash_) {
    return Status::InvalidArgument(
        "Save: the index is keyed by a caller-built hash the index file "
        "cannot record; re-key with ResetHash(family, bits) first");
  }
  MATE_RETURN_IF_ERROR(WaitUntilReady());
  // Serialization needs every cell: drain the warmer (or materialize
  // inline) and refuse to persist a corpus whose blobs failed to parse.
  MATE_RETURN_IF_ERROR(WaitCorpusResident());
  // The stats land in the corpus file header, so reopening lazily needs no
  // ComputeStats scan. Like the index's stored stats, they snapshot the
  // corpus as of the last build/scan; maintenance edits can lag them.
  MATE_RETURN_IF_ERROR(SaveCorpus(corpus_, corpus_stats_, corpus_path));
  if (index_ != nullptr) {
    // The index file carries the stats its hash was built with, which
    // differ from the session's when the index was built without any.
    MATE_RETURN_IF_ERROR(SaveIndex(*index_, hash_family_,
                                   index_->corpus_stats(), index_path));
  }
  // Serialization made everything resident; shed back down to the budget
  // (no-op when unarmed) now that the scan is over.
  corpus_.EvictToBudget();
  return Status::OK();
}

void Session::SetNumThreads(unsigned num_threads) {
  pool_ = std::make_unique<ThreadPool>(num_threads);
}

}  // namespace mate
