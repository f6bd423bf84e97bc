// Intra-query scaling (ROADMAP "index sharding" + "intra-query
// parallelism"): one giant OD-style query — the Fig. 4/6 workload the batch
// engine cannot help, because there is nothing to batch — through the
// sharded executor at increasing fan-out widths. Reports wall time and
// speedup vs the serial path and checks every run is bit-identical to it.
//
// Shape to hold: speedup grows with threads (>= 2x at 8 threads on the
// large-query workload), results identical at every width, and the `auto`
// row engages the sharded path on its own (the query's PL traffic clears
// the QueryExecutor::kAutoParallelMinItems gate). Each width also reports
// verify_ns_per_row: summed row-loop time per row sent to verification,
// which stays flat across widths when fan-out adds no per-row overhead.

#include <algorithm>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

#include "bench_util/bench_json.h"
#include "bench_util/report.h"
#include "bench_util/runner.h"
#include "core/query_executor.h"
#include "util/stopwatch.h"
#include "workload/scenarios.h"

using namespace mate;  // NOLINT: bench brevity

namespace {

constexpr int kRepetitions = 3;  // best-of, to shave scheduler noise

// Best-of-kRepetitions wall time for one spec; every run's result must be
// bit-identical to `reference` (empty reference = first run defines it).
double TimeQuery(Session& session, const QuerySpec& spec,
                 std::vector<DiscoveryResult>* reference,
                 uint64_t* shards_used, uint64_t* fanout) {
  double best = 0.0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    Stopwatch timer;
    auto result = session.Discover(spec);
    const double elapsed = timer.ElapsedSeconds();
    if (!result.ok()) {
      std::cerr << "Discover failed: " << result.status().ToString() << "\n";
      std::exit(1);
    }
    if (rep == 0) {
      *shards_used = result->stats.shards_used;
      *fanout = result->stats.fanout_threads;
    }
    std::vector<DiscoveryResult> run;
    run.push_back(std::move(*result));
    if (reference->empty()) {
      *reference = std::move(run);
    } else if (!SameTopK(*reference, run)) {
      std::cerr << "ERROR: results diverged from the serial reference\n";
      std::exit(1);
    }
    best = rep == 0 ? elapsed : std::min(best, elapsed);
  }
  return best;
}

// Summed row_loop span time per row sent to verification, over one traced
// run at the session's current width: the per-row cost of the verify path,
// whose growth with width is the fan-out's inflation for identical work.
double VerifyNsPerRow(Session& session, QuerySpec spec,
                      const std::vector<DiscoveryResult>& reference) {
  QueryTrace trace("verify_ns_per_row");
  spec.trace = &trace;
  auto result = session.Discover(spec);
  if (!result.ok()) {
    std::cerr << "traced Discover failed: " << result.status().ToString()
              << "\n";
    std::exit(1);
  }
  const uint64_t rows = result->stats.rows_sent_to_verification;
  std::vector<DiscoveryResult> run;
  run.push_back(std::move(*result));
  if (!SameTopK(reference, run)) {
    std::cerr << "ERROR: traced run diverged from the serial reference\n";
    std::exit(1);
  }
  uint64_t row_loop_us = 0;
  for (const TraceSpan& span : trace.Spans()) {
    if (span.name == "row_loop") row_loop_us += span.duration_us;
  }
  return rows > 0 ? static_cast<double>(row_loop_us) * 1e3 /
                        static_cast<double>(rows)
                  : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs defaults;
  defaults.scale = 1.0;
  defaults.threads = 8;
  BenchArgs args =
      ParseBenchArgs(argc, argv, "single_query_scaling", defaults);
  if (args.threads == 0) args.threads = std::thread::hardware_concurrency();

  WorkloadConfig config;
  config.scale = args.scale;
  config.queries_per_set = 1;  // one giant query is the whole workload
  config.seed = args.seed;
  Workload workload = MakeOpenDataWorkload(config);

  // The largest OD ladder — the paper's 10k-row open-data queries.
  const auto& [set_name, cases] = workload.query_sets.back();
  const QueryCase& qc = cases.front();

  SessionOptions session_options;
  session_options.corpus = std::move(workload.corpus);
  session_options.build_index = true;
  session_options.num_threads = 1;
  session_options.cache_bytes = 0;  // every run pays full cost
  Session session = OpenOrDie(std::move(session_options));

  std::cout << "== Intra-query scaling on one " << set_name
            << " query (corpus=" << session.corpus().NumTables()
            << " tables, query=" << qc.query.NumRows()
            << " rows, key=" << qc.key_columns.size()
            << " cols, k=" << args.k << ", best of " << kRepetitions
            << ") ==\n\n";

  QuerySpec spec;
  spec.table = &qc.query;
  spec.key_columns = qc.key_columns;
  spec.options.k = args.k;

  std::vector<unsigned> widths = {1};
  for (unsigned w = 2; w < args.threads; w *= 2) widths.push_back(w);
  if (args.threads > 1) widths.push_back(args.threads);

  std::vector<DiscoveryResult> serial;
  double serial_wall = 0.0;
  double serial_verify_ns = 0.0;
  double widest_verify_ns = 0.0;
  ReportTable table({"Threads", "Shards", "Fanout", "Wall", "Speedup",
                     "Verify ns/row", "Identical"});
  BenchJsonWriter json("single_query_scaling", args.threads);
  for (unsigned width : widths) {
    session.SetNumThreads(width);
    spec.intra_query_threads = width;
    uint64_t shards = 0, fanout = 0;
    const double wall = TimeQuery(session, spec, &serial, &shards, &fanout);
    if (width == 1) serial_wall = wall;
    const double verify_ns = VerifyNsPerRow(session, spec, serial);
    if (width == 1) serial_verify_ns = verify_ns;
    widest_verify_ns = verify_ns;
    table.AddRow({std::to_string(width), std::to_string(shards),
                  std::to_string(fanout), FormatSeconds(wall),
                  FormatDouble(serial_wall / wall, 2) + "x",
                  FormatDouble(verify_ns, 1), width == 1 ? "ref" : "yes"});
    json.Add("width=" + std::to_string(width), "wall", wall, "s", shards);
    json.Add("width=" + std::to_string(width), "verify_ns_per_row",
             verify_ns, "ns", shards);
  }

  // Auto mode at full width: the gate must engage by itself on a query
  // this large.
  session.SetNumThreads(args.threads);
  spec.intra_query_threads = 0;
  uint64_t auto_shards = 0, auto_fanout = 0;
  const double auto_wall =
      TimeQuery(session, spec, &serial, &auto_shards, &auto_fanout);
  table.AddRow({"auto", std::to_string(auto_shards),
                std::to_string(auto_fanout), FormatSeconds(auto_wall),
                FormatDouble(serial_wall / auto_wall, 2) + "x", "-", "yes"});
  table.Print(std::cout);
  // Reported, not gated: per-row verify cost at full width vs serial (1.0 =
  // no inflation; the fan-out work in ROADMAP aims to bring it there).
  std::cout << "\nVerify ns/row at " << widths.back()
            << " threads vs serial: "
            << FormatDouble(serial_verify_ns > 0.0
                                ? widest_verify_ns / serial_verify_ns
                                : 0.0,
                            2)
            << "x\n";

  std::cout << "\nShape check: speedup grows with threads (>= 2x at 8 on "
               "the full-scale workload); every row returned bit-identical "
               "top-k lists; 'auto' engaged "
            << auto_shards << " shards on its own.\n";
  if (args.threads >= 2 && serial_wall / auto_wall < 1.05 &&
      auto_shards <= 1) {
    std::cerr << "ERROR: auto mode never engaged the sharded path\n";
    return 1;
  }
  json.Add("width=auto", "wall", auto_wall, "s", auto_shards);

  // ---- tracing overhead + span coverage (src/obs/trace.h) --------------
  // Re-measure the serial path back-to-back with and without a QueryTrace
  // armed so the comparison shares thermal/cache state, then check the
  // traced span tree covers every pipeline phase and that the phases
  // account for the discover span's wall time.
  session.SetNumThreads(1);
  spec.intra_query_threads = 1;
  uint64_t shards = 0, fanout = 0;
  const double untraced_wall =
      TimeQuery(session, spec, &serial, &shards, &fanout);
  double traced_wall = 0.0;
  std::unique_ptr<QueryTrace> trace;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    auto rep_trace = std::make_unique<QueryTrace>("bench");
    spec.trace = rep_trace.get();
    Stopwatch timer;
    auto result = session.Discover(spec);
    const double elapsed = timer.ElapsedSeconds();
    spec.trace = nullptr;
    if (!result.ok()) {
      std::cerr << "traced Discover failed: " << result.status().ToString()
                << "\n";
      return 1;
    }
    std::vector<DiscoveryResult> run;
    run.push_back(std::move(*result));
    if (!SameTopK(serial, run)) {
      std::cerr << "ERROR: traced run diverged from the serial reference\n";
      return 1;
    }
    traced_wall = rep == 0 ? elapsed : std::min(traced_wall, elapsed);
    trace = std::move(rep_trace);
  }
  const double overhead = untraced_wall > 0.0
                              ? (traced_wall - untraced_wall) / untraced_wall
                              : 0.0;

  const std::vector<TraceSpan> spans = trace->Spans();
  std::set<std::string> names;
  for (const TraceSpan& span : spans) names.insert(span.name);
  for (const char* phase :
       {"discover", "validate", "readiness_wait", "execute", "prepare",
        "fetch", "evaluate", "merge", "materialize", "row_loop"}) {
    if (names.count(phase) == 0) {
      std::cerr << "ERROR: traced span tree misses phase '" << phase
                << "'\n";
      return 1;
    }
  }
  // Phase accounting: the discover span's direct children must explain its
  // duration to within 10% (acceptance gate on the OD workload).
  const TraceSpan& discover = spans.front();
  uint64_t children_us = 0;
  for (const TraceSpan& span : spans) {
    if (span.parent == discover.id) children_us += span.duration_us;
  }
  const double coverage =
      discover.duration_us > 0
          ? static_cast<double>(children_us) /
                static_cast<double>(discover.duration_us)
          : 1.0;
  std::cout << "\nTracing: off=" << FormatSeconds(untraced_wall)
            << " on=" << FormatSeconds(traced_wall) << " overhead="
            << FormatDouble(overhead * 100.0, 2) << "% ("
            << spans.size() << " spans, phase coverage "
            << FormatDouble(coverage * 100.0, 1) << "% of discover wall)\n";
  if (coverage < 0.9 || coverage > 1.01) {
    std::cerr << "ERROR: phase spans explain "
              << FormatDouble(coverage * 100.0, 1)
              << "% of the discover span (want within 10%)\n";
    return 1;
  }
  if (overhead > 0.25) {
    std::cerr << "ERROR: armed tracing costs "
              << FormatDouble(overhead * 100.0, 1)
              << "% on a full OD query — instrumentation is too hot\n";
    return 1;
  }
  json.Add("trace=off", "wall", untraced_wall, "s", 1);
  json.Add("trace=on", "wall", traced_wall, "s",
           static_cast<uint64_t>(spans.size()));
  json.Add("trace=on", "tracing_overhead", overhead, "frac", 1);

  if (!json.WriteTo(args.json_path)) return 1;
  return 0;
}
