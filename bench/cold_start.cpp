// Cold start (ROADMAP "async I/O" + "corpus-side lazy loading"): eager vs
// phased/lazy Session::Open over the same on-disk corpus + index pair. The
// eager mode is the fully blocking open: Session::Open followed by
// WaitUntilReady and WaitCorpusResident, with "open" stamped after both.
//
// A serving process does more at startup than load its files: it parses
// incoming requests, warms sockets, loads configuration. The bench models
// the part that matters here — after Open returns, each mode must still
// deserialize the query table from CSV (the request) before it can call
// Discover. Under eager load that work queues behind the full index AND
// corpus reads; under phased+lazy load it overlaps with the background
// posting/super-key streaming, the corpus contributes only a header parse,
// and cells materialize per candidate table on demand.
//
// The corpus carries one *giant cold table* stuffed with values no query
// ever probes — the ROADMAP's motivating case: a small-table query must
// reach its first result without materializing it.
//
// Reported per mode, best of kRepetitions:
//   * open     — when Session::Open returned (phased: time-to-accept);
//   * parsed   — when the query CSV was deserialized;
//   * first    — time-to-first-result (Discover blocked on readiness);
//   * resident — corpus tables materialized when the first result landed.
// Plus the corpus-header-parse time (what lazy Open pays for the corpus).
//
// Exit 1 if the first results are not bit-identical across modes, if lazy
// Open returns with the corpus already fully materialized, or if the
// on-demand mode materialized the giant cold table for a query that never
// touches it — CI gates bench-smoke on all three.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util/bench_json.h"
#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "storage/corpus_io.h"
#include "storage/csv.h"
#include "util/stopwatch.h"
#include "workload/scenarios.h"

using namespace mate;  // NOLINT: bench brevity

namespace {

constexpr int kRepetitions = 3;  // best-of, to shave scheduler noise

struct ModeResult {
  double open_s = 0.0;
  double parsed_s = 0.0;
  double first_s = 0.0;
  bool corpus_resident_at_open = true;
  size_t tables_resident_first = 0;
  bool giant_resident_first = true;
  std::vector<DiscoveryResult> results;  // one entry: the first result
};

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::cerr << what << ": " << status.ToString() << "\n";
  std::exit(1);
}

// Many rows, few distinct values (cheap on the index, fat in the corpus),
// and a value universe ("zzcoldNN_C") disjoint from the word-shaped query
// vocabulary — so no query ever fetches a posting that points here and the
// table stays cold unless something eagerly materializes it.
Table MakeGiantColdTable(size_t rows) {
  Table giant("giant_cold");
  constexpr size_t kCols = 6;
  for (size_t c = 0; c < kCols; ++c) {
    giant.AddColumn("cold_c" + std::to_string(c));
  }
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> cells;
    cells.reserve(kCols);
    for (size_t c = 0; c < kCols; ++c) {
      cells.push_back("zzcold" + std::to_string(r % 89) + "_" +
                      std::to_string(c));
    }
    (void)giant.AppendRow(std::move(cells));
  }
  return giant;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs defaults;
  defaults.scale = 0.5;
  defaults.threads = 4;
  BenchArgs args = ParseBenchArgs(argc, argv, "cold_start", defaults);
  if (args.threads == 0) args.threads = 4;

  WorkloadConfig config;
  config.scale = args.scale;
  config.queries_per_set = 1;
  config.seed = args.seed;
  Workload workload = MakeOpenDataWorkload(config);
  const auto& [set_name, cases] = workload.query_sets.back();
  const QueryCase& qc = cases.front();
  const std::string query_csv = ToCsv(qc.query);

  const size_t giant_rows =
      std::max<size_t>(20000, static_cast<size_t>(160000 * args.scale));
  const TableId giant_id =
      workload.corpus.AddTable(MakeGiantColdTable(giant_rows));
  const size_t num_tables = workload.corpus.NumTables();

  const std::string corpus_path = "/tmp/mate_cold_start.corpus";
  const std::string index_path = "/tmp/mate_cold_start.index";
  {
    SessionOptions build;
    build.corpus = std::move(workload.corpus);
    build.build_index = true;
    build.build_options.num_threads = args.threads;
    Session session = OpenOrDie(std::move(build));
    if (Status s = session.Save(corpus_path, index_path); !s.ok()) {
      Die("Save failed", s);
    }
  }
  // Warm the page cache for both files so the modes compare parse and
  // overlap costs, not who reads the disk first.
  const size_t corpus_bytes = ReadFileToString(corpus_path).ValueOr("").size();
  const size_t index_bytes = ReadFileToString(index_path).ValueOr("").size();

  // What a lazy open pays on the corpus side: stats + table directory.
  double header_parse_s = 0.0;
  {
    Stopwatch timer;
    auto header_only = OpenCorpusLazy(corpus_path);
    if (!header_only.ok()) Die("OpenCorpusLazy failed", header_only.status());
    header_parse_s = timer.ElapsedSeconds();
  }

  const auto run_mode = [&](bool eager, bool warm) {
    ModeResult best;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      ModeResult mode;
      Stopwatch total;
      SessionOptions options;
      options.corpus_path = corpus_path;
      options.index_path = index_path;
      options.num_threads = args.threads;
      options.cache_bytes = 0;
      options.warm_corpus = warm;
      auto session = Session::Open(std::move(options));
      if (!session.ok()) Die("Session::Open failed", session.status());
      if (eager) {
        if (Status s = session->WaitUntilReady(); !s.ok()) {
          Die("WaitUntilReady failed", s);
        }
        if (Status s = session->WaitCorpusResident(); !s.ok()) {
          Die("WaitCorpusResident failed", s);
        }
      }
      mode.open_s = total.ElapsedSeconds();
      mode.corpus_resident_at_open = session->corpus_resident();

      // The "request": deserialize the query table. Under phased load this
      // overlaps with the background index streaming + corpus warming.
      auto query = ParseCsv(query_csv, "q");
      if (!query.ok()) Die("ParseCsv failed", query.status());
      mode.parsed_s = total.ElapsedSeconds();

      QuerySpec spec;
      spec.table = &*query;
      spec.key_columns = qc.key_columns;
      spec.options.k = args.k;
      auto result = session->Discover(spec);  // blocks on index readiness
      if (!result.ok()) Die("Discover failed", result.status());
      mode.first_s = total.ElapsedSeconds();
      mode.tables_resident_first = session->corpus().tables_resident();
      mode.giant_resident_first = session->corpus().table_resident(giant_id);
      mode.results.push_back(std::move(*result));

      if (rep == 0 || mode.first_s < best.first_s) best = std::move(mode);
    }
    return best;
  };

  ModeResult eager = run_mode(/*eager=*/true, /*warm=*/true);
  ModeResult phased = run_mode(/*eager=*/false, /*warm=*/true);
  ModeResult on_demand = run_mode(/*eager=*/false, /*warm=*/false);

  std::cout << "== Cold start on one " << set_name << " query (corpus file "
            << FormatBytes(corpus_bytes) << " incl. giant cold table of "
            << giant_rows << " rows, index file " << FormatBytes(index_bytes)
            << ", key=" << qc.key_columns.size() << " cols, k=" << args.k
            << ", threads=" << args.threads << ", best of " << kRepetitions
            << ") ==\n\n";
  std::cout << "Corpus header parse (lazy open's corpus cost): "
            << FormatSeconds(header_parse_s) << "\n\n";
  ReportTable table({"Mode", "Open returns", "Query parsed", "First result",
                     "Resident @first"});
  const auto resident = [&](const ModeResult& mode) {
    return std::to_string(mode.tables_resident_first) + "/" +
           std::to_string(num_tables) +
           (mode.giant_resident_first ? " (incl. giant)" : " (giant cold)");
  };
  table.AddRow({"eager", FormatSeconds(eager.open_s),
                FormatSeconds(eager.parsed_s), FormatSeconds(eager.first_s),
                resident(eager)});
  table.AddRow({"phased+warm", FormatSeconds(phased.open_s),
                FormatSeconds(phased.parsed_s), FormatSeconds(phased.first_s),
                resident(phased)});
  table.AddRow({"phased+on-demand", FormatSeconds(on_demand.open_s),
                FormatSeconds(on_demand.parsed_s),
                FormatSeconds(on_demand.first_s), resident(on_demand)});
  table.Print(std::cout);

  const double accept_speedup =
      phased.open_s > 0 ? eager.open_s / phased.open_s : 0.0;
  std::cout << "\nPhased Open returned " << FormatDouble(accept_speedup, 2)
            << "x sooner (time-to-accept " << FormatSeconds(phased.open_s)
            << " vs " << FormatSeconds(eager.open_s)
            << "); time-to-first-result " << FormatSeconds(phased.first_s)
            << " vs " << FormatSeconds(eager.first_s) << " eager.\n";

  // The hard gates. First: all modes bit-identical.
  if (!SameTopK(eager.results, phased.results) ||
      !SameTopK(eager.results, on_demand.results)) {
    std::cerr << "ERROR: lazy/phased open returned different results than "
                 "eager open\n";
    return 1;
  }
  std::cout << "First-query results are bit-identical across modes.\n";
  // Second: lazy Open must return before the corpus is fully materialized
  // (deterministic in the on-demand mode: nothing materializes without a
  // query).
  if (on_demand.corpus_resident_at_open) {
    std::cerr << "ERROR: lazy Open returned with the corpus already fully "
                 "materialized\n";
    return 1;
  }
  // Third: a small-table query must not pay for the giant cold table
  // (deterministic in the on-demand mode — no warmer races the check).
  if (on_demand.giant_resident_first) {
    std::cerr << "ERROR: the small-table query materialized the giant cold "
                 "table\n";
    return 1;
  }
  std::cout << "Small-table query reached its first result with "
            << on_demand.tables_resident_first << "/" << num_tables
            << " tables materialized; the giant cold table stayed cold.\n";

  BenchJsonWriter json("cold_start", args.threads);
  json.Add("corpus", "header_parse", header_parse_s, "s");
  const auto emit_mode = [&json](const char* name, const ModeResult& mode) {
    json.Add(name, "open", mode.open_s, "s");
    json.Add(name, "query_parsed", mode.parsed_s, "s");
    json.Add(name, "first_result", mode.first_s, "s");
    json.Add(name, "tables_resident_at_first",
             static_cast<double>(mode.tables_resident_first), "tables");
  };
  emit_mode("eager", eager);
  emit_mode("phased+warm", phased);
  emit_mode("phased+on-demand", on_demand);
  if (!json.WriteTo(args.json_path)) return 1;

  if (phased.open_s >= eager.open_s) {
    // On a single hardware thread the loader can only time-slice with the
    // corpus read, so the overlap cannot buy wall time — the shape to hold
    // there is work parity (phased within a few % of eager). With real
    // cores, phased Open should return roughly an index-stream early.
    std::cerr << "WARNING: phased Open was not faster than eager Open on "
                 "this run (single hardware thread, noise, or tiny "
                 "corpus?)\n";
  }
  std::remove(corpus_path.c_str());
  std::remove(index_path.c_str());
  return 0;
}
