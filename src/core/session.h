// mate::Session — the library's front door. MATE (§2) frames discovery as
// a *service* over a fixed indexed corpus; Session is that service shaped
// as one owning object:
//
//   * owns the corpus + inverted index pair (loaded from disk, adopted
//     in-memory, or built on open) and validates at Open that they match;
//   * opens *phased* when loading an index from disk: Open returns once
//     the header, dictionary, and corpus/index cross-validation are done,
//     the mmap'd posting region and super keys stream in on the pool, and
//     the first Discover blocks on a readiness latch (WaitUntilReady gives
//     explicit control);
//   * loads the corpus *lazily* from a corpus file (format v3): Open parses
//     only the shape header (stats + table directory) over the mmap'd
//     image, queries materialize just the candidate tables they evaluate,
//     and a dedicated background warmer streams the rest
//     (WaitCorpusResident / SessionOptions::warm_corpus give explicit
//     control). A fully blocking open is Open + WaitUntilReady +
//     WaitCorpusResident;
//   * owns one long-lived work-stealing ThreadPool reused across batches
//     (the per-batch worker spin-up of the raw engine is gone) and fans a
//     single large query's sharded evaluation out over the same pool
//     (core/query_executor.h — intra-query parallelism);
//   * owns the keyed result cache (query fingerprint -> DiscoveryResult,
//     LRU under a byte budget) with an explicit InvalidateCache() hook for
//     index updates;
//   * validates every query upfront (QuerySpec) and reports failures as
//     Status/Result in the repo's Arrow/RocksDB idiom instead of the UB a
//     malformed key spec used to reach.
//
// Every binary (CLI, benches, examples) goes through Session; the raw
// MateSearch class remains as an internal implementation detail.
// Thread-safety: Discover/DiscoverBatch/RunBatch are called from one
// thread at a time (they fan work out over the pool internally); mutation
// (mutable_*, ResetHash, SetNumThreads, ConfigureCache) requires the
// session to be otherwise idle.
//
// Typical use:
//
//   SessionOptions options;
//   options.corpus_path = "lake.corpus";
//   options.index_path = "lake.index";
//   options.num_threads = 8;
//   auto session = Session::Open(std::move(options));
//   if (!session.ok()) { /* session.status() */ }
//   QuerySpec spec;
//   spec.table = &my_table;
//   spec.key_columns = {0, 1};
//   auto result = session->Discover(spec);

#ifndef MATE_CORE_SESSION_H_
#define MATE_CORE_SESSION_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/discovery_engine.h"
#include "core/result_cache.h"
#include "index/index_builder.h"
#include "storage/corpus.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mate {

class QueryTrace;  // src/obs/trace.h

/// One discovery request: the query table, the composite key, and the
/// engine options. Validated by Session before any work happens.
struct QuerySpec {
  /// Must outlive the Discover/DiscoverBatch call.
  const Table* table = nullptr;
  std::vector<ColumnId> key_columns;
  DiscoveryOptions options;

  /// Result-cache partition this query reads and populates (multi-tenant
  /// serving: src/server/). Tenants never share cached entries, and each
  /// partition carries its own byte budget (ConfigureCachePartition).
  /// Execution-only in the same sense as the knobs below — it selects
  /// *where* a result is cached, never what is computed — and the empty
  /// default is the classic shared partition.
  std::string tenant;

  // ---- execution-only knobs (core/query_executor.h) ------------------
  // They change how fast the answer is computed, never the answer, and are
  // therefore excluded from the result-cache fingerprint: the same logical
  // query hits the cache at any parallelism setting.

  /// Intra-query fan-out. 0 = auto: the whole session pool, but only when
  /// the query's estimated PL traffic clears
  /// QueryExecutor::kAutoParallelMinItems; 1 = serial (the pre-sharding
  /// path); N > 1 = fan out over min(N, pool width) workers.
  unsigned intra_query_threads = 0;
  /// Evaluation shards; 0 derives one per resolved worker. Explicit values
  /// are honored even at width 1 (shards then run sequentially).
  size_t intra_query_shards = 0;

  /// Optional span recorder (src/obs/trace.h): when set, Discover records
  /// its pipeline phases (validate -> readiness wait -> cache lookup ->
  /// execute [prepare / per-shard fetch / rule-1 prune / materialize /
  /// row loop / merge]) into it, rooted under the trace's attach parent.
  /// Null — the default — keeps every instrumentation site a single
  /// pointer check. Must outlive the call; execution-only like the knobs
  /// above, so it never enters the cache fingerprint.
  QueryTrace* trace = nullptr;
};

struct SessionOptions {
  SessionOptions() = default;
  SessionOptions(SessionOptions&&) = default;
  SessionOptions& operator=(SessionOptions&&) = default;

  // ---- corpus source (exactly one) ----------------------------------
  /// Load the corpus from a SaveCorpus file.
  std::string corpus_path;
  /// ... or adopt an in-memory corpus.
  std::optional<Corpus> corpus;

  // ---- index source (at most one; optional) -------------------------
  /// Load the index from a SaveIndex file.
  std::string index_path;
  /// ... or adopt an index already built over the corpus. `index_family`
  /// tells the session which hash family it carries (for Save/re-keying).
  std::unique_ptr<InvertedIndex> index;
  HashFamily index_family = HashFamily::kXash;
  /// ... or build one from the corpus with `build_options`. Without any of
  /// the three the session is corpus-only (stats/curation workloads) and
  /// Discover fails with InvalidArgument.
  bool build_index = false;
  IndexBuildOptions build_options;

  // ---- service knobs ------------------------------------------------
  /// Long-lived discovery pool (IndexBuilder convention: 0 = hardware
  /// concurrency, 1 = serial on the calling thread).
  unsigned num_threads = 1;
  /// Background corpus warmer (lazy corpus only): a dedicated thread
  /// materializes every table after Open returns, so steady-state queries
  /// stop paying first-touch parses. It is a *dedicated* thread, not a pool
  /// task — the pool's Wait() is global, and a query's shard barrier must
  /// not absorb a giant table's parse. Set false to materialize strictly
  /// on demand (benches isolating first-touch cost use this).
  bool warm_corpus = true;
  /// Corpus residency byte budget (0 = unlimited, the classic behavior).
  /// With a budget armed, a lazily opened corpus behaves like a buffer
  /// pool: candidate tables (or just their touched columns) materialize on
  /// demand, and at each idle point — between Discover calls, after a
  /// batch, after Save — the least-recently-touched tables are evicted
  /// until the resident cell bytes fit the budget again. Results stay
  /// bit-identical to an unlimited run; only residency changes. The budget
  /// also disables the background warmer (warming the whole lake would
  /// just be evicted again) and keeps the corpus mmap alive for re-parses.
  /// Budgets only govern path-based lazy corpora: adopted/built corpora
  /// have no backing file to re-parse evicted tables from.
  uint64_t corpus_budget_bytes = 0;
  /// Result-cache byte budget; 0 disables caching entirely.
  size_t cache_bytes = kDefaultCacheBytes;
  /// Pins the scalar reference implementations of the hot-path kernels
  /// (util/simd.h) instead of the runtime-dispatched SIMD variants —
  /// results are bit-identical either way (tests/simd_test.cpp pins it);
  /// only speed changes. Process-global, like the MATE_FORCE_SCALAR
  /// environment variable it mirrors: it flips the dispatch table every
  /// session in the process reads. False leaves the dispatch as is (it
  /// does NOT re-enable SIMD if the environment forced scalar).
  bool force_scalar_kernels = false;
  /// Cross-check that index super keys cover exactly the corpus's tables
  /// and rows (catches corpus/index file mix-ups at Open instead of as
  /// out-of-bounds reads mid-query).
  bool validate = true;

  static constexpr size_t kDefaultCacheBytes = 64u << 20;  // 64 MB
};

class Session {
 public:
  /// Opens a session per `options`. Fails with:
  ///   * InvalidArgument — no corpus source, or two of them;
  ///   * IOError / Corruption — unreadable or malformed files (a corpus
  ///     file of any version but 3 is "unsupported version N");
  ///   * Corruption — index does not match the corpus (table/row skew).
  /// Path-based loads are *phased* and *lazy*: Open returns once the index
  /// header + value dictionary, the corpus shape header, and the
  /// corpus/index cross-validation are done. The index's posting lists and
  /// super keys then stream in on the session pool (a dedicated loader
  /// thread when the pool is serial), and corpus cells materialize on first
  /// access while a background warmer streams the rest. Results are
  /// bit-identical to a blocking open; only the time at which a load error
  /// in the bulky sections surfaces moves — to WaitUntilReady / the first
  /// query (index) or WaitCorpusResident / the touching query (corpus
  /// cells), as kCorruption. Open followed by both waits is the fully
  /// blocking open.
  static Result<Session> Open(SessionOptions options);

  /// Quiesces any in-flight phased load (waits for the loader task / joins
  /// the loader thread) before tearing the index down.
  ~Session();
  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // ---- readiness ----------------------------------------------------

  /// Blocks until the phased load (if any) has finished streaming the
  /// posting lists and super keys, and returns its status (kCorruption on
  /// a malformed posting/super-key region). Returns OK immediately for
  /// built, adopted, and corpus-only sessions.
  /// Discover/DiscoverBatch/Save/ResetHash all call this themselves; call
  /// it directly to surface load errors early or before touching index()
  /// by hand.
  Status WaitUntilReady() const;

  /// Non-blocking readiness probe: true once the index (if any) is fully
  /// loaded — whether the load succeeded or failed (WaitUntilReady tells
  /// which).
  bool index_ready() const;

  /// Blocks until every corpus table is resident — draining the background
  /// warmer when one is running, materializing inline otherwise — and
  /// returns the corpus's sticky load status (kCorruption naming the table,
  /// section, and byte offset on a malformed cell blob). Returns OK
  /// immediately for adopted and built corpora. Queries do NOT wait
  /// on this (on-demand materialization is the point); Save does.
  Status WaitCorpusResident() const;

  /// Non-blocking probe: true once every corpus table is resident.
  bool corpus_resident() const;

  // ---- queries ------------------------------------------------------

  /// Checks `spec` against the session's corpus and index; returns
  /// InvalidArgument naming the offending column/table id on: null or
  /// key-less table, duplicate or out-of-range key columns, k <= 0, and
  /// exclude/restrict ids outside the corpus.
  Status ValidateQuery(const QuerySpec& spec) const;

  /// Top-k discovery for one query (validated, cached). Runs the sharded
  /// intra-query executor on the session pool per the spec's
  /// intra_query_threads/intra_query_shards knobs — results are
  /// bit-identical at every setting. A cache hit returns the originally
  /// computed DiscoveryResult verbatim (including the execution shape its
  /// stats recorded).
  Result<DiscoveryResult> Discover(const QuerySpec& spec);

  /// Pre-execution cost estimate of one query: the PL-item-traffic figure
  /// the executor's auto-parallel gate compares against
  /// QueryExecutor::kAutoParallelMinItems, surfaced *before* execution so
  /// an admission layer (src/server/) can steer the spec's
  /// intra_query_threads/intra_query_shards knobs per query. Validates the
  /// spec and blocks on index readiness exactly like Discover; cheap
  /// relative to execution (one init-column pass, one index probe per
  /// distinct value). The estimate never affects results — it only
  /// predicts how much work Discover would do.
  Result<uint64_t> EstimatePlItems(const QuerySpec& spec) const;

  /// Batch discovery over the session pool. All specs are validated before
  /// any query runs (the error names the failing spec's position). With
  /// the cache enabled, duplicate specs inside the batch compute once and
  /// count as hits; batch-level hit/miss traffic lands in BatchStats.
  /// The pool is spent on one axis at a time: a batch that boils down to a
  /// single uncached query runs it through the intra-query executor
  /// (honoring its knobs); batches with several distinct uncached queries
  /// fan out across queries, each evaluated serially. Duplicate specs that
  /// differ only in execution knobs share one computation (the leader's
  /// knobs win — the knobs are absent from the fingerprint by design).
  Result<BatchResult> DiscoverBatch(const std::vector<QuerySpec>& specs);

  /// Uncached generic fan-out of `run_one(i)` for i in [0, n) over the
  /// session pool — the substrate bench runners use for baseline systems
  /// (SCR/MCR/JOSIE share the pool but must not share MATE's cache).
  BatchResult RunBatch(size_t n,
                       const std::function<DiscoveryResult(size_t)>& run_one);

  // ---- cache --------------------------------------------------------

  /// Drops every cached result in every tenant partition. Call after
  /// mutating the corpus or index through the mutable accessors below —
  /// an index edit invalidates all tenants' results alike.
  void InvalidateCache();

  /// Drops only `tenant`'s partition (the empty name is the shared default
  /// partition). Serving uses this for per-tenant resets; index/corpus
  /// mutation must keep using the all-partition overload above.
  void InvalidateCache(std::string_view tenant);

  /// Cumulative cache counters summed over every partition (zeroed stats
  /// when the cache is disabled).
  ResultCacheStats cache_stats() const;

  /// One tenant partition's counters (zeroed when disabled or untouched).
  ResultCacheStats cache_partition_stats(std::string_view tenant) const;

  /// Creates or resizes `tenant`'s cache partition to `bytes` (evicting
  /// down when shrinking). Untouched tenants otherwise get the session
  /// cache's default byte budget on first use. No-op when caching is
  /// disabled.
  void ConfigureCachePartition(std::string_view tenant, size_t bytes);

  bool cache_enabled() const { return cache_ != nullptr; }

  /// Replaces the cache with a fresh one of `bytes` capacity (0 disables);
  /// previously cached results and current-content counters are dropped.
  void ConfigureCache(size_t bytes);

  // ---- ownership & maintenance --------------------------------------

  const Corpus& corpus() const { return corpus_; }
  /// Residency gauges/counters of the corpus store (budget, resident and
  /// peak bytes, eviction + rematerialization traffic).
  ResidencyStats corpus_residency() const { return corpus_.residency(); }
  bool has_index() const { return index_ != nullptr; }
  /// Precondition: has_index() — and, after a phased open, that
  /// WaitUntilReady() returned OK (the loader may still be streaming
  /// postings into the object otherwise).
  const InvertedIndex& index() const { return *index_; }

  /// Mutable access for §5.4 maintenance flows. The cache is NOT
  /// implicitly invalidated — call InvalidateCache() once the edit batch
  /// is complete (stale entries otherwise serve pre-edit results).
  /// mutable_corpus() first drains corpus residency (the background warmer
  /// writes table slots, and the store's mutation contract requires it to
  /// be idle — AddTable may even reallocate under the warmer otherwise);
  /// a materialization error is latched in corpus().load_status().
  /// mutable_index() has the same WaitUntilReady precondition as index().
  Corpus* mutable_corpus() {
    (void)WaitCorpusResident();
    return &corpus_;
  }
  InvertedIndex* mutable_index() { return index_.get(); }

  /// Swaps the super-key hash (re-keying on the session pool) and
  /// invalidates the cache — every tenant partition, not just the shared
  /// one: re-keying changes what the index computes for all tenants alike.
  /// The registry overload parameterizes the hash from the session's
  /// corpus stats, like the index builder does, and records them on the
  /// index. A caller-built hash leaves the index's recorded stats alone,
  /// and the session cannot Save until the registry overload re-keys it.
  Status ResetHash(HashFamily family, size_t hash_bits);
  Status ResetHash(HashFamily family, std::unique_ptr<RowHashFunction> hash);

  /// Persists the corpus (and, when present, the index) for a later
  /// path-based Open. The index file records the hash as family, width and
  /// stats, from which the loader rebuilds it through the registry; an
  /// index keyed by a caller-built hash (ResetHash with a hash object)
  /// would reload with a different hash, so Save refuses it with
  /// InvalidArgument and writes no file.
  Status Save(const std::string& corpus_path,
              const std::string& index_path) const;

  ThreadPool* pool() { return pool_.get(); }
  unsigned num_threads() const { return pool_->num_threads(); }
  /// Replaces the (idle) pool with one of `num_threads` workers.
  void SetNumThreads(unsigned num_threads);

  /// Stats of the corpus the session serves: the stats the index's hash
  /// was built with (built, loaded or adopted index), else the corpus file
  /// header's, else computed by a corpus scan.
  const CorpusStats& corpus_stats() const { return corpus_stats_; }
  HashFamily hash_family() const { return hash_family_; }
  /// Build cost/size details; meaningful when Open built the index.
  const IndexBuildReport& build_report() const { return build_report_; }

 private:
  Session() = default;

  /// Blocks until no loader task can touch this session's index again:
  /// waits the readiness latch and joins the dedicated loader thread, if
  /// any. Called before destruction / move-assignment tears the index
  /// down.
  void QuiesceLoad() const;

  /// Canonical cache key: a 128-bit digest of the key-column contents plus
  /// every result-affecting option — and nothing execution-only (thread or
  /// shard knobs). Precondition: spec validated.
  std::string FingerprintQuery(const QuerySpec& spec) const;

  /// Uncached execution of one validated spec. `intra_parallel` routes it
  /// through the sharded executor on the session pool (top-level calls);
  /// false forces the serial path (queries already running *on* the pool).
  DiscoveryResult RunQuery(const QuerySpec& spec, bool intra_parallel);

  Corpus corpus_;
  std::unique_ptr<InvertedIndex> index_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ResultCache> cache_;  // null when disabled
  CorpusStats corpus_stats_;
  HashFamily hash_family_ = HashFamily::kXash;
  // True once ResetHash installed a caller-built hash: the index file could
  // not name it, so Save refuses.
  bool caller_hash_ = false;
  IndexBuildReport build_report_;
  // Phase-2 streaming state of a phased open (null otherwise): the loader
  // task/thread shares it via shared_ptr, so it survives Session moves.
  struct PendingLoad;
  std::shared_ptr<PendingLoad> pending_;
  // Background corpus-warmer state (null unless a lazy corpus is warming):
  // the warmer thread runs a callable that co-owns the table store, so it
  // survives Session moves; QuiesceLoad drains it before teardown.
  struct PendingWarm;
  std::shared_ptr<PendingWarm> warm_;
};

}  // namespace mate

#endif  // MATE_CORE_SESSION_H_
