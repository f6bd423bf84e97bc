// mate_cli — command-line front end for the MATE library. Every command
// runs through mate::Session, the library's owning service facade.
//
//   mate_cli index   --csv-dir DIR --corpus OUT.corpus --index OUT.index
//                    [--hash Xash] [--bits 128] [--threads N]
//   mate_cli search  --corpus F --index F --query Q.csv --key a,b[,c...]
//                    [--k 10] [--threads N] [--intra-threads N |
//                    --auto-parallel]
//   mate_cli search  --corpus F --index F --batch DIR --key a,b[,c...]
//                    [--k 10] [--threads N] [--cache-mb 64] [--no-cache]
//                    [--intra-threads N | --auto-parallel]
//                    [--corpus-budget-mb N]
//   mate_cli stats   --corpus F [--index F] [--verify-stats]
//                    [--corpus-budget-mb N]
//   mate_cli dups    --corpus F [--min-overlap 0.85]
//   mate_cli union   --corpus F --query Q.csv [--k 10]
//   mate_cli client  --port N [--host 127.0.0.1]
//                    [--query Q.csv --key a,b | --batch DIR --key a,b]
//                    [--k 10] [--tenant T] [--stats] [--ping]
//
// `client` talks to a running mate_server over its wire protocol instead of
// opening the corpus locally: each query CSV is projected down to its key
// columns, sent as one frame, and the served top-k (bit-identical to an
// in-process search) is printed. --tenant routes the queries to that
// tenant's result-cache partition; --stats fetches and prints the server's
// observability snapshot afterwards; a kOverloaded shed prints as such and
// sets a non-zero exit code.
//
// Key columns are given by header name or zero-based position. `--batch`
// points at a directory of query CSVs; all of them are resolved against the
// same --key spec and discovered concurrently on --threads workers, with
// repeated queries served from the session's result cache (size it with
// --cache-mb, disable with --no-cache).
//
// Intra-query parallelism: `--intra-threads N` shards a single query's
// evaluation over min(N, --threads) workers (`0` = auto); `--auto-parallel`
// is shorthand for `--intra-threads 0`, letting the session fan out only
// when a query is large enough to pay off. Results are bit-identical at
// every setting; the per-query "exec:" line reports the shard/fan-out
// shape actually used. Default is serial (today's single-query behavior).
//
// Cold start: search opens the session *phased* — Open returns after the
// index header, dictionary, and corpus/index validation, while the mmap'd
// posting region and super keys stream in on the pool; the first query
// blocks on the readiness latch. The corpus side is *lazy* (format v3):
// Open parses only the shape header, queries materialize just the tables
// they evaluate, and a background warmer streams the rest.
//
// Memory governance: `--corpus-budget-mb N` arms a residency byte budget
// over the lazy corpus — candidate tables (just their touched columns, for
// single-column keys) materialize on demand and the least-recently-used
// tables are evicted back down to the budget between queries. Results stay
// bit-identical; search and stats report the residency traffic
// (resident/peak bytes, evictions, re-parses).

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/session.h"
#include "core/similarity.h"
#include "core/union_search.h"
#include "obs/trace.h"
#include "server/client.h"
#include "hash/xash.h"
#include "storage/csv.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace mate {
namespace {

int Usage() {
  std::cerr <<
      "usage:\n"
      "  mate_cli index  --csv-dir DIR --corpus OUT --index OUT"
      " [--hash Xash] [--bits 128] [--threads N]\n"
      "  mate_cli search --corpus F --index F --query Q.csv --key a,b [--k N]"
      " [--threads N] [--intra-threads N | --auto-parallel] [--trace PATH]\n"
      "  mate_cli search --corpus F --index F --batch DIR --key a,b [--k N]"
      " [--threads N] [--cache-mb N] [--no-cache]"
      " [--intra-threads N | --auto-parallel] [--corpus-budget-mb N]\n"
      "  mate_cli stats  --corpus F [--index F] [--verify-stats]"
      " [--corpus-budget-mb N]\n"
      "  mate_cli dups   --corpus F [--min-overlap 0.85]\n"
      "  mate_cli union  --corpus F --query Q.csv [--k N]\n"
      "  mate_cli client --port N [--host 127.0.0.1]"
      " [--query Q.csv --key a,b | --batch DIR --key a,b] [--k N]"
      " [--tenant T] [--stats] [--ping] [--metrics]\n";
  return 2;
}

// Flags that take no value; stored with the value "1".
bool IsBooleanFlag(std::string_view name) {
  return name == "no-cache" || name == "auto-parallel" ||
         name == "verify-stats" || name == "stats" || name == "ping" ||
         name == "metrics";
}

// --flag value parsing into a map; returns false on malformed input.
bool ParseFlags(int argc, char** argv, int first,
                std::map<std::string, std::string>* flags) {
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    key = key.substr(2);
    if (IsBooleanFlag(key)) {
      (*flags)[key] = "1";
      continue;
    }
    if (i + 1 >= argc) return false;
    (*flags)[key] = argv[++i];
  }
  return true;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

// Strict parse for small numeric flags; rejects garbage and absurd values
// instead of crashing in stoul or spawning 4 billion threads.
Result<unsigned> ParseUintFlag(const std::string& flag,
                               const std::string& text, unsigned max) {
  unsigned value = 0;
  if (!ParseSmallUint(text, max, &value)) {
    return Status::InvalidArgument("--" + flag + " must be an integer in [0, " +
                                   std::to_string(max) + "], got '" + text +
                                   "'");
  }
  return value;
}

Result<unsigned> ParseThreads(const std::string& text) {
  return ParseUintFlag("threads", text, 1024);
}

Result<uint64_t> ParseBudgetBytes(
    const std::map<std::string, std::string>& flags) {
  auto mb = ParseUintFlag("corpus-budget-mb",
                          FlagOr(flags, "corpus-budget-mb", "0"), 1u << 20);
  if (!mb.ok()) return mb.status();
  return uint64_t{*mb} << 20;
}

void PrintResidency(const ResidencyStats& r) {
  std::cout << "residency: resident=" << r.resident_bytes << "B peak="
            << r.peak_resident_bytes << "B budget=" << r.budget_bytes
            << "B materialized=" << r.bytes_materialized << "B evictions="
            << r.evictions << " (" << r.bytes_evicted << "B) re-parses="
            << r.rematerializations << " tables=" << r.tables_resident
            << " (" << r.partial_tables << " partial)\n";
}

Result<std::vector<ColumnId>> ResolveKeyColumns(const Table& query,
                                                const std::string& spec) {
  std::vector<ColumnId> key_columns;
  for (const std::string& part : Split(spec, ',')) {
    if (part.empty()) return Status::InvalidArgument("empty key column");
    ColumnId c = query.FindColumn(part);
    if (c == kInvalidColumnId && IsAllDigits(part)) {
      unsigned long idx = std::stoul(part);
      if (idx < query.NumColumns()) c = static_cast<ColumnId>(idx);
    }
    if (c == kInvalidColumnId) {
      return Status::NotFound("no query column named '" + part + "'");
    }
    key_columns.push_back(c);
  }
  return key_columns;
}

int CmdIndex(const std::map<std::string, std::string>& flags) {
  const std::string dir = FlagOr(flags, "csv-dir", "");
  const std::string corpus_out = FlagOr(flags, "corpus", "");
  const std::string index_out = FlagOr(flags, "index", "");
  if (dir.empty() || corpus_out.empty() || index_out.empty()) return Usage();

  Corpus corpus;
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".csv") files.push_back(entry.path());
  }
  if (ec) return Fail(Status::IOError("cannot list " + dir));
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    auto table = LoadCsvFile(path.string(), path.stem().string());
    if (!table.ok()) {
      std::cerr << "skipping " << path << ": " << table.status().ToString()
                << "\n";
      continue;
    }
    corpus.AddTable(std::move(*table));
  }
  if (corpus.NumTables() == 0) {
    return Fail(Status::NotFound("no readable .csv files in " + dir));
  }
  std::cout << "loaded " << corpus.NumTables() << " tables\n";

  SessionOptions session_options;
  session_options.corpus = std::move(corpus);
  session_options.build_index = true;
  auto bits = ParseUintFlag("bits", FlagOr(flags, "bits", "128"), 512);
  if (!bits.ok()) return Fail(bits.status());
  session_options.build_options.hash_bits = *bits;
  auto num_threads = ParseThreads(FlagOr(flags, "threads", "1"));
  if (!num_threads.ok()) return Fail(num_threads.status());
  session_options.build_options.num_threads = *num_threads;
  auto family = ParseHashFamily(FlagOr(flags, "hash", "Xash"));
  if (!family.ok()) return Fail(family.status());
  session_options.build_options.hash_family = *family;

  Stopwatch timer;
  auto session = Session::Open(std::move(session_options));
  if (!session.ok()) return Fail(session.status());
  std::cout << "indexed in " << timer.ElapsedSeconds() << "s: "
            << session->build_report().ToString() << "\n";

  if (Status s = session->Save(corpus_out, index_out); !s.ok()) {
    return Fail(s);
  }
  std::cout << "wrote " << corpus_out << " and " << index_out << "\n";
  return 0;
}

void PrintTopK(const Corpus& corpus, const Table& query,
               const std::vector<ColumnId>& key_columns,
               const DiscoveryResult& result) {
  // Shape accessors: printing names must not materialize tables (served
  // results can come from the cache without the table ever being touched).
  for (const TableResult& tr : result.top_k) {
    std::cout << "  " << corpus.table_name(tr.table_id)
              << "  joinability=" << tr.joinability << "  mapping:";
    for (size_t i = 0; i < tr.best_mapping.size(); ++i) {
      std::cout << " " << query.column_name(key_columns[i]) << "->"
                << corpus.table_column_name(tr.table_id, tr.best_mapping[i]);
    }
    std::cout << "\n";
  }
}

int CmdSearch(const std::map<std::string, std::string>& flags) {
  const std::string corpus_path = FlagOr(flags, "corpus", "");
  const std::string index_path = FlagOr(flags, "index", "");
  const std::string query_path = FlagOr(flags, "query", "");
  const std::string batch_dir = FlagOr(flags, "batch", "");
  const std::string key_spec = FlagOr(flags, "key", "");
  if (corpus_path.empty() || index_path.empty() || key_spec.empty() ||
      (query_path.empty() == batch_dir.empty())) {
    return Usage();
  }
  SessionOptions session_options;
  session_options.corpus_path = corpus_path;
  session_options.index_path = index_path;
  auto num_threads = ParseThreads(FlagOr(flags, "threads", "1"));
  if (!num_threads.ok()) return Fail(num_threads.status());
  session_options.num_threads = *num_threads;
  auto cache_mb = ParseUintFlag("cache-mb", FlagOr(flags, "cache-mb", "64"),
                                1u << 20);
  if (!cache_mb.ok()) return Fail(cache_mb.status());
  session_options.cache_bytes =
      flags.count("no-cache") ? 0 : size_t{*cache_mb} << 20;
  auto budget_bytes = ParseBudgetBytes(flags);
  if (!budget_bytes.ok()) return Fail(budget_bytes.status());
  session_options.corpus_budget_bytes = *budget_bytes;
  Stopwatch open_timer;
  auto session = Session::Open(std::move(session_options));
  if (!session.ok()) return Fail(session.status());
  std::cerr << "session open in " << open_timer.ElapsedSeconds() << "s";
  if (!session->index_ready()) std::cerr << " (index warming in background)";
  if (!session->corpus_resident()) {
    std::cerr << " (corpus " << session->corpus().tables_resident() << "/"
              << session->corpus().NumTables()
              << " tables resident, warming in background)";
  }
  std::cerr << "\n";

  // Single query and batch both run through the session; a single query is
  // just a batch of one.
  std::vector<Table> query_tables;
  if (!query_path.empty()) {
    auto query = LoadCsvFile(query_path, "query");
    if (!query.ok()) return Fail(query.status());
    query_tables.push_back(std::move(*query));
  } else {
    // try/catch as well as the error_code: the ec overload only covers
    // construction, increments still throw.
    std::vector<std::filesystem::path> files;
    std::error_code ec;
    try {
      for (const auto& entry :
           std::filesystem::directory_iterator(batch_dir, ec)) {
        if (entry.path().extension() == ".csv") files.push_back(entry.path());
      }
    } catch (const std::filesystem::filesystem_error& e) {
      return Fail(Status::IOError("cannot list " + batch_dir + ": " +
                                  e.what()));
    }
    if (ec) return Fail(Status::IOError("cannot list " + batch_dir));
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
      auto query = LoadCsvFile(path.string(), path.stem().string());
      if (!query.ok()) {
        std::cerr << "skipping " << path << ": " << query.status().ToString()
                  << "\n";
        continue;
      }
      query_tables.push_back(std::move(*query));
    }
    if (query_tables.empty()) {
      return Fail(Status::NotFound("no readable .csv files in " + batch_dir));
    }
  }

  // Same policy as unreadable CSVs above: warn and skip, keep the batch
  // going. A single query (no --batch) still fails hard.
  DiscoveryOptions options;
  auto k = ParseUintFlag("k", FlagOr(flags, "k", "10"), 1000000);
  if (!k.ok()) return Fail(k.status());
  options.k = static_cast<int>(*k);

  // Intra-query execution shape: serial by default; `--auto-parallel` lets
  // the session decide per query; an explicit `--intra-threads` wins.
  unsigned intra_threads = 1;
  if (flags.count("auto-parallel")) intra_threads = 0;
  if (flags.count("intra-threads")) {
    auto parsed =
        ParseUintFlag("intra-threads", FlagOr(flags, "intra-threads", "0"),
                      1024);
    if (!parsed.ok()) return Fail(parsed.status());
    intra_threads = *parsed;
  }

  std::vector<QuerySpec> specs;
  specs.reserve(query_tables.size());
  for (const Table& query : query_tables) {
    QuerySpec spec;
    spec.table = &query;
    spec.options = options;
    spec.intra_query_threads = intra_threads;
    auto key_columns = ResolveKeyColumns(query, key_spec);
    if (key_columns.ok()) {
      spec.key_columns = std::move(*key_columns);
      // Surface malformed specs here (duplicate positions etc.) with the
      // same warn-and-skip policy instead of failing the whole batch.
      if (Status s = session->ValidateQuery(spec); !s.ok()) {
        key_columns = s;
      }
    }
    if (!key_columns.ok()) {
      Status error = Status::InvalidArgument(
          "query '" + query.name() + "': " + key_columns.status().ToString());
      if (query_tables.size() == 1) return Fail(error);
      std::cerr << "skipping " << error.ToString() << "\n";
      continue;
    }
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    return Fail(Status::NotFound("no query resolves key <" + key_spec + ">"));
  }

  // --trace PATH: run the (single) query with phase tracing armed, dump the
  // span tree as Chrome trace-event JSON, and print the top spans by self
  // time — the quick "where did the time go" view without opening the file.
  const std::string trace_path = FlagOr(flags, "trace", "");
  if (!trace_path.empty()) {
    if (specs.size() != 1 || query_path.empty()) {
      return Fail(Status::InvalidArgument(
          "--trace requires single-query mode (--query, not --batch)"));
    }
    QueryTrace trace("search");
    specs[0].trace = &trace;
    auto result = session->Discover(specs[0]);
    if (!result.ok()) return Fail(result.status());
    std::cout << "[" << specs[0].table->name() << "] top-" << options.k
              << " joinable tables on key <" << key_spec << ">:\n";
    PrintTopK(session->corpus(), *specs[0].table, specs[0].key_columns,
              result.value());
    std::cout << "  stats: " << result.value().stats.ToString() << "\n";
    std::ofstream out(trace_path, std::ios::trunc);
    out << trace.ToChromeTraceJson() << "\n";
    if (!out) return Fail(Status::IOError("cannot write " + trace_path));
    const std::vector<TraceSpan> spans = trace.Spans();
    std::vector<uint64_t> self_us = SelfTimesUs(spans);
    std::vector<size_t> order(spans.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return self_us[a] > self_us[b];
    });
    std::cerr << "trace written to " << trace_path << "; top spans by self"
              << " time:\n";
    for (size_t i = 0; i < order.size() && i < 3; ++i) {
      const TraceSpan& span = spans[order[i]];
      std::cerr << "  " << span.name << "  self=" << self_us[order[i]]
                << "us total=" << span.duration_us << "us\n";
    }
    if (*budget_bytes > 0) PrintResidency(session->corpus_residency());
    return 0;
  }

  auto batch = session->DiscoverBatch(specs);
  if (!batch.ok()) return Fail(batch.status());

  for (size_t q = 0; q < batch->results.size(); ++q) {
    const Table& query = *specs[q].table;
    std::cout << "[" << query.name() << "] top-" << options.k
              << " joinable tables on key <" << key_spec << ">:\n";
    PrintTopK(session->corpus(), query, specs[q].key_columns,
              batch->results[q]);
    const DiscoveryStats& stats = batch->results[q].stats;
    std::cout << "  stats: " << stats.ToString() << "\n";
    std::cout << "  exec: shards=" << stats.shards_used
              << " fanout=" << stats.fanout_threads << "\n";
  }
  if (batch->results.size() > 1) {
    // Batch line carries the cache hit/miss counters plus the intra-query
    // fan-out traffic when any query ran sharded.
    std::cout << "batch: " << batch->stats.ToString() << "\n";
  }
  if (*budget_bytes > 0) PrintResidency(session->corpus_residency());
  return 0;
}

// Opens a corpus-only session (plus index when `index_path` is set) — the
// stats/curation commands never construct storage readers directly.
Result<Session> OpenSession(const std::string& corpus_path,
                            const std::string& index_path = "",
                            uint64_t corpus_budget_bytes = 0) {
  SessionOptions options;
  options.corpus_path = corpus_path;
  options.index_path = index_path;
  options.cache_bytes = 0;   // no discovery happens in these commands
  options.warm_corpus = false;  // one-shot commands: materialize strictly
                                // on demand — stats' fast path must not
                                // stall process exit behind a warmer
  options.corpus_budget_bytes = corpus_budget_bytes;
  return Session::Open(std::move(options));
}

int CmdStats(const std::map<std::string, std::string>& flags) {
  const std::string corpus_path = FlagOr(flags, "corpus", "");
  if (corpus_path.empty()) return Usage();
  const std::string index_path = FlagOr(flags, "index", "");
  auto budget_bytes = ParseBudgetBytes(flags);
  if (!budget_bytes.ok()) return Fail(budget_bytes.status());
  auto session = OpenSession(corpus_path, index_path, *budget_bytes);
  if (!session.ok()) return Fail(session.status());
  // The fast path reports the stored snapshot (corpus file header, or the
  // index file's copy) — no cell is parsed. `--verify-stats` re-runs the
  // full ComputeStats scan and cross-checks the snapshot, the diagnostic
  // to reach for after maintenance edits or a suspect file.
  std::cout << "corpus: " << session->corpus_stats().ToString() << "\n";
  std::cout << "residency: " << session->corpus().tables_resident() << "/"
            << session->corpus().NumTables() << " tables resident\n";
  PrintResidency(session->corpus_residency());
  if (flags.count("verify-stats")) {
    const CorpusStats scanned = session->corpus().ComputeStats();
    if (Status s = session->corpus().load_status(); !s.ok()) return Fail(s);
    std::cout << "scanned: " << scanned.ToString() << "\n";
    if (scanned == session->corpus_stats()) {
      std::cout << "stats verified: stored snapshot matches the scan\n";
    } else {
      std::cerr << "stats MISMATCH: stored snapshot disagrees with the "
                   "scan (stale after maintenance edits? re-save to "
                   "refresh)\n";
      return 1;
    }
  }
  if (session->has_index()) {
    // Stats needs the whole index resident; drain the phased load and
    // surface deferred corruption instead of reading a half-built index.
    if (Status ready = session->WaitUntilReady(); !ready.ok()) {
      return Fail(ready);
    }
    const InvertedIndex& index = session->index();
    std::cout << "index: hash=" << index.hash().Name() << "/"
              << index.hash_bits() << "b postings="
              << index.NumPostingEntries() << " lists="
              << index.NumPostingLists() << " bytes="
              << index.MemoryBytes() << "\n";
  }
  return 0;
}

int CmdDups(const std::map<std::string, std::string>& flags) {
  const std::string corpus_path = FlagOr(flags, "corpus", "");
  if (corpus_path.empty()) return Usage();
  auto session = OpenSession(corpus_path);
  if (!session.ok()) return Fail(session.status());
  auto hash = Xash::FromCorpusStats(128, session->corpus_stats());
  DuplicateRowFinder finder(&session->corpus(), hash.get());
  DuplicateFinderOptions options;
  options.min_overlap = std::stod(FlagOr(flags, "min-overlap", "0.85"));
  auto pairs = finder.FindDuplicates(options);
  std::cout << pairs.size() << " near-duplicate row pairs (overlap >= "
            << options.min_overlap << "):\n";
  for (const DuplicateRowPair& pair : pairs) {
    const Corpus& corpus = session->corpus();
    std::cout << "  " << corpus.table_name(pair.left_table) << "#"
              << pair.left_row << "  ~  "
              << corpus.table_name(pair.right_table) << "#"
              << pair.right_row << "  overlap=" << pair.overlap << "\n";
  }
  return 0;
}

int CmdUnion(const std::map<std::string, std::string>& flags) {
  const std::string corpus_path = FlagOr(flags, "corpus", "");
  const std::string query_path = FlagOr(flags, "query", "");
  if (corpus_path.empty() || query_path.empty()) return Usage();
  auto session = OpenSession(corpus_path);
  if (!session.ok()) return Fail(session.status());
  auto query = LoadCsvFile(query_path, "query");
  if (!query.ok()) return Fail(query.status());
  auto hash = Xash::FromCorpusStats(256, session->corpus_stats());
  UnionIndex union_index =
      UnionIndex::Build(session->corpus(), hash.get(), /*sample_size=*/64);
  UnionSearchOptions options;
  options.k = std::stoi(FlagOr(flags, "k", "10"));
  auto results = union_index.Discover(*query, options);
  std::cout << "top-" << options.k << " unionable tables:\n";
  for (const UnionResult& result : results) {
    const Corpus& corpus = session->corpus();
    std::cout << "  " << corpus.table_name(result.table_id)
              << "  score=" << result.score << "  alignment:";
    for (const ColumnAlignment& a : result.alignment) {
      std::cout << " " << query->column_name(a.query_column) << "->"
                << corpus.table_column_name(result.table_id,
                                            a.candidate_column);
    }
    std::cout << "\n";
  }
  return 0;
}

// Talks to a running mate_server: sends each query CSV (projected to its
// key columns) as one QUERY frame, prints served results, and optionally
// fetches the server's STATS snapshot. Exit codes: 0 all served, 1 a
// transport error, 3 at least one query shed with kOverloaded.
int CmdClient(const std::map<std::string, std::string>& flags) {
  const std::string host = FlagOr(flags, "host", "127.0.0.1");
  const std::string port_text = FlagOr(flags, "port", "");
  const std::string query_path = FlagOr(flags, "query", "");
  const std::string batch_dir = FlagOr(flags, "batch", "");
  const std::string key_spec = FlagOr(flags, "key", "");
  const bool want_stats = flags.count("stats") > 0;
  const bool want_ping = flags.count("ping") > 0;
  const bool want_metrics = flags.count("metrics") > 0;
  const bool has_queries = !query_path.empty() || !batch_dir.empty();
  if (port_text.empty()) return Usage();
  if (!query_path.empty() && !batch_dir.empty()) return Usage();
  if (has_queries && key_spec.empty()) return Usage();
  if (!has_queries && !want_stats && !want_ping && !want_metrics) {
    return Usage();
  }
  auto port = ParseUintFlag("port", port_text, 65535);
  if (!port.ok()) return Fail(port.status());
  auto k = ParseUintFlag("k", FlagOr(flags, "k", "10"), 1000000);
  if (!k.ok()) return Fail(k.status());

  auto client = MateClient::Connect(host, static_cast<uint16_t>(*port));
  if (!client.ok()) return Fail(client.status());

  if (want_ping) {
    if (Status s = client->Ping(); !s.ok()) return Fail(s);
    std::cout << "pong from " << host << ":" << *port << "\n";
  }

  std::vector<Table> query_tables;
  if (!query_path.empty()) {
    auto query = LoadCsvFile(query_path, "query");
    if (!query.ok()) return Fail(query.status());
    query_tables.push_back(std::move(*query));
  } else if (!batch_dir.empty()) {
    std::vector<std::filesystem::path> files;
    std::error_code ec;
    try {
      for (const auto& entry :
           std::filesystem::directory_iterator(batch_dir, ec)) {
        if (entry.path().extension() == ".csv") files.push_back(entry.path());
      }
    } catch (const std::filesystem::filesystem_error& e) {
      return Fail(Status::IOError("cannot list " + batch_dir + ": " +
                                  e.what()));
    }
    if (ec) return Fail(Status::IOError("cannot list " + batch_dir));
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
      auto query = LoadCsvFile(path.string(), path.stem().string());
      if (!query.ok()) {
        std::cerr << "skipping " << path << ": " << query.status().ToString()
                  << "\n";
        continue;
      }
      query_tables.push_back(std::move(*query));
    }
    if (query_tables.empty()) {
      return Fail(Status::NotFound("no readable .csv files in " + batch_dir));
    }
  }

  size_t served = 0, shed = 0;
  for (const Table& query : query_tables) {
    auto key_columns = ResolveKeyColumns(query, key_spec);
    if (!key_columns.ok()) {
      Status error = Status::InvalidArgument(
          "query '" + query.name() + "': " + key_columns.status().ToString());
      if (query_tables.size() == 1) return Fail(error);
      std::cerr << "skipping " << error.ToString() << "\n";
      continue;
    }
    QueryRequest request =
        MakeQueryRequest(query, *key_columns, static_cast<int>(*k),
                         FlagOr(flags, "tenant", ""));
    auto response = client->Query(request);
    if (!response.ok()) return Fail(response.status());
    std::cout << "[" << query.name() << "] ";
    if (!response->status.ok()) {
      std::cout << (response->status.IsOverloaded() ? "SHED: " : "ERROR: ")
                << response->status.ToString() << "\n";
      ++shed;
      continue;
    }
    ++served;
    std::cout << "top-" << *k << " joinable tables on key <" << key_spec
              << ">:\n";
    for (const ServedResult& r : response->results) {
      std::cout << "  " << r.table_name << "  joinability=" << r.joinability
                << "  mapping:";
      for (size_t i = 0; i < r.mapping.size(); ++i) {
        std::cout << " " << query.column_name((*key_columns)[i]) << "->"
                  << r.mapping_names[i];
      }
      std::cout << "\n";
    }
  }
  if (!query_tables.empty()) {
    std::cout << "client: " << served << " served, " << shed
              << " shed/errored\n";
  }

  if (want_stats) {
    auto stats = client->Stats();
    if (!stats.ok()) return Fail(stats.status());
    std::cout << stats->ToString();
  }

  if (want_metrics) {
    auto page = client->Metrics();
    if (!page.ok()) return Fail(page.status());
    std::cout << *page;
  }
  return shed > 0 ? 3 : 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  std::map<std::string, std::string> flags;
  if (!ParseFlags(argc, argv, 2, &flags)) return Usage();
  if (command == "index") return CmdIndex(flags);
  if (command == "search") return CmdSearch(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "dups") return CmdDups(flags);
  if (command == "union") return CmdUnion(flags);
  if (command == "client") return CmdClient(flags);
  return Usage();
}

}  // namespace
}  // namespace mate

int main(int argc, char** argv) { return mate::Run(argc, argv); }
