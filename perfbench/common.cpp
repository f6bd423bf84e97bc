#include "common.h"

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/joinability.h"
#include "core/mate.h"
#include "index/index_builder.h"
#include "storage/corpus_io.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/string_util.h"

namespace perfbench {

using mate::ColumnId;
using mate::Corpus;
using mate::RowId;
using mate::Status;
using mate::Table;
using mate::TableId;
using mate::TableResult;

namespace {

std::string FormatNumber(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string Quote(const std::string& s) {
  return "\"" + mate::JsonEscape(s) + "\"";
}

double Mean(double sum, size_t n) {
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

unsigned Workers() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, hw);
}

PinToOneCpu::PinToOneCpu() {
  CPU_ZERO(&saved_);
  const int cpu = sched_getcpu();
  if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) cpu_ = cpu;
}

PinToOneCpu::~PinToOneCpu() {
  if (cpu_ >= 0) sched_setaffinity(0, sizeof(saved_), &saved_);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------- SpanLog

void SpanLog::Add(const std::string& name, Clock::time_point start,
                  Clock::time_point end) {
  if (!enabled_) return;
  const auto us = [this](Clock::time_point t) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
            .count());
  };
  events_.push_back({name, us(start), us(end) - us(start), 0, 0});
}

void SpanLog::AddQueryTrace(const mate::QueryTrace& trace,
                            Clock::time_point trace_start) {
  if (!enabled_ || query_traces_ >= kMaxQueryTraces) return;
  ++query_traces_;
  const uint64_t offset = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(trace_start -
                                                            epoch_)
          .count());
  for (const mate::TraceSpan& span : trace.Spans()) {
    events_.push_back({span.name, offset + span.start_us, span.duration_us,
                       query_traces_, span.tid});
  }
}

Status SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (i > 0) os << ",\n";
    os << "{\"name\":" << Quote(e.name) << ",\"ph\":\"X\",\"ts\":"
       << e.start_us << ",\"dur\":" << e.duration_us << ",\"pid\":" << e.pid
       << ",\"tid\":" << e.tid << "}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
  return mate::WriteFileAtomic(path, os.str());
}

// ---------------------------------------------------------------- metrics

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},          {"query_p50_ms", "ms"},
      {"query_tail_ms", "ms"},   {"query_qps", "1/s"},
      {"write_p50_us", "us"},    {"write_tail_us", "us"},
      {"ok_frac", "frac"},       {"index_mb", "MB"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"core.executor.row_loop_us", "us"},
      {"core.joinability.comparisons_per_verified_row", "count"},
      {"core.joinability.ns_per_checked_row", "ns"},
      {"hash.filter_precision", "frac"},
      {"hash.fp_rows", "count"},
      {"core.executor.shards_used", "count"},
      {"core.executor.fanout_threads", "count"},
      {"core.executor.shard_skew", "ratio"},
      {"core.executor.evaluate_us", "us"},
      {"core.executor.merge_us", "us"},
      {"core.executor.prepare_us", "us"},
      {"core.executor.fetch_us", "us"},
      {"index.pl_items", "count"},
      {"core.executor.candidate_tables", "count"},
      {"core.executor.rule1_pruned", "count"},
      {"core.executor.rule2_pruned", "count"},
      {"core.executor.tables_evaluated", "count"},
      {"core.executor.rows_checked", "count"},
      {"core.executor.rows_verified", "count"},
      {"core.executor.value_comparisons", "count"},
      {"core.session.validate_us", "us"},
      {"core.session.cache_lookup_us", "us"},
      {"core.session.cache_insert_us", "us"},
      {"core.result_cache.hit_ratio", "frac"},
      {"core.result_cache.evictions", "count"},
      {"server.service_p50_us", "us"},
      {"server.wire_us", "us"},
      {"server.queue_depth_max", "count"},
      {"server.shed_frac", "frac"},
      {"server.generator_lag_ms", "ms"},
      {"server.open_p50_ms", "ms"},
      {"server.open_p99_ms", "ms"},
      {"server.max_rate_qps", "1/s"},
      {"storage.tables_materialized", "count"},
      {"storage.cell_mb_materialized", "MB"},
      {"storage.resident_mb", "MB"},
      {"index.build_s", "s"},
      {"storage.save_s", "s"},
      {"core.session.open_s", "s"},
      {"core.session.ready_s", "s"},
      {"index.posting_mb", "MB"},
      {"index.superkey_mb", "MB"},
      {"index.insert_table_us", "us"},
      {"index.insert_row_us", "us"},
      {"index.update_cell_us", "us"},
      {"index.delete_row_us", "us"},
      {"index.delete_table_us", "us"},
      {"core.result_cache.invalidate_us", "us"},
      {"core.executor.span_coverage", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return kMetrics;
}

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
}

void Report::NotApplicable(const std::vector<std::string>& names) {
  for (const std::string& name : names) values_[name] = 0.0;
}

void Report::Fail(const std::string& what) {
  correct_ = false;
  std::cerr << "perfbench: FAIL: " << what << "\n";
}

void Report::Count(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

bool Report::ResultLine(bool trace, std::string* line) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  bool complete = true;
  for (const auto& [name, unit] :
       trace ? PerLayerMetrics() : EndToEndMetrics()) {
    double value = 0.0;
    if (name == "ok_frac") {
      value = attempted_ > 0 ? static_cast<double>(attempted_ - failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0;
    } else if (auto it = values_.find(name); it != values_.end()) {
      value = it->second;
    } else {
      std::cerr << "perfbench: metric " << name << " was not measured\n";
      complete = false;
      continue;
    }
    if (!std::isfinite(value)) {
      std::cerr << "perfbench: metric " << name << " is not finite\n";
      complete = false;
      continue;
    }
    if (!first) os << ", ";
    first = false;
    os << Quote(name) << ": {\"value\": " << FormatNumber(value)
       << ", \"unit\": " << Quote(unit) << "}";
  }
  os << "}}";
  *line = os.str();
  return complete && attempted_ > 0;
}

// ---------------------------------------------------------------- RunInfo

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  // The brand string: cpuid leaves 0x80000002-0x80000004, 16 bytes each.
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    unsigned* r = regs + 4 * i;
    if (__get_cpuid(0x80000002u + i, &r[0], &r[1], &r[2], &r[3]) == 0) {
      return "unknown";
    }
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  model = model.c_str();  // stop at the first NUL
  return std::string(mate::Trim(model));
#else
  return "unknown";
#endif
}

}  // namespace

RunInfo::RunInfo(const Args& args) {
  Add("workload", Quote(args.workload));
  Add("seed", static_cast<double>(args.seed));
  Add("seconds", args.seconds);
  Add("trace", args.trace ? 1.0 : 0.0);
  Add("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  Add("workers", static_cast<double>(Workers()));
  Add("cpu_model", Quote(CpuModel()));
  Add("kernel_level",
      Quote(mate::simd::LevelName(mate::simd::ActiveLevel())));
  Add("compiler", Quote(PERFBENCH_COMPILER));
  Add("build_type", Quote(PERFBENCH_BUILD_TYPE));
  Add("git_commit", Quote(args.commit));
}

void RunInfo::Add(const std::string& key, const std::string& json_value) {
  fields_.emplace_back(key, json_value);
}

void RunInfo::Add(const std::string& key, double value) {
  fields_.emplace_back(key, FormatNumber(value));
}

std::string RunInfo::Line() const {
  std::string line = "{\"run_info\": {";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) line += ", ";
    line += Quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return line + "}}";
}

// ---------------------------------------------------------------- queries

std::vector<PoolQuery> QueryPool(const mate::Workload& workload) {
  std::vector<PoolQuery> pool;
  for (size_t s = 0; s < workload.query_sets.size(); ++s) {
    for (const mate::QueryCase& qc : workload.query_sets[s].second) {
      PoolQuery q;
      q.qc = &qc;
      q.set = workload.query_sets[s].first;
      q.set_index = s;
      pool.push_back(std::move(q));
    }
  }
  return pool;
}

mate::QuerySpec SpecFor(const PoolQuery& q) {
  mate::QuerySpec spec;
  spec.table = &q.qc->query;
  spec.key_columns = q.qc->key_columns;
  spec.options.k = kTopK;
  return spec;
}

bool SameTopK(const std::vector<TableResult>& got,
              const std::vector<TableResult>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].table_id != want[i].table_id ||
        got[i].joinability != want[i].joinability ||
        got[i].best_mapping != want[i].best_mapping) {
      return false;
    }
  }
  return true;
}

std::vector<TableResult> SerialTopK(const Corpus& corpus,
                                    const mate::InvertedIndex& index,
                                    const PoolQuery& q) {
  mate::DiscoveryOptions options;
  options.k = kTopK;
  return mate::MateSearch(&corpus, &index)
      .Discover(q.qc->query, q.qc->key_columns, options)
      .top_k;
}

std::vector<TableResult> OracleTopK(const Corpus& corpus, const PoolQuery& q) {
  const Table& query = q.qc->query;
  const std::vector<ColumnId>& key = q.qc->key_columns;
  const auto combos = mate::ExtractKeyCombos(query, key);
  std::unordered_map<std::string, std::vector<size_t>> combos_by_value;
  std::unordered_set<std::string> key_values;
  for (size_t i = 0; i < combos.size(); ++i) {
    combos_by_value[combos[i][0]].push_back(i);
    key_values.insert(combos[i].begin(), combos[i].end());
  }
  std::vector<TableResult> found;
  std::vector<std::string> row;
  std::unordered_set<std::string> row_values;
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    const Table& table = corpus.table(t);
    // Only live rows holding every value of some combo can match under any
    // mapping, and only columns holding a key value in such a row can be
    // part of a matching mapping. Brute force runs on that projection;
    // column order is kept, so mappings (and their tie-break) map back.
    std::vector<RowId> rows;
    std::vector<char> keep_column(table.NumColumns(), 0);
    for (RowId r = 0; r < table.NumRows(); ++r) {
      if (table.IsRowDeleted(r)) continue;
      row.clear();
      for (ColumnId c = 0; c < table.NumColumns(); ++c) {
        row.push_back(mate::NormalizeValue(table.cell(r, c)));
      }
      row_values.clear();
      row_values.insert(row.begin(), row.end());
      bool holds_combo = false;
      for (const std::string& v : row_values) {
        const auto it = combos_by_value.find(v);
        if (it == combos_by_value.end()) continue;
        for (const size_t ci : it->second) {
          holds_combo = std::all_of(
              combos[ci].begin(), combos[ci].end(),
              [&](const std::string& x) { return row_values.count(x) > 0; });
          if (holds_combo) break;
        }
        if (holds_combo) break;
      }
      if (!holds_combo) continue;
      rows.push_back(r);
      for (ColumnId c = 0; c < table.NumColumns(); ++c) {
        if (key_values.count(row[c]) > 0) keep_column[c] = 1;
      }
    }
    if (rows.empty()) continue;
    std::vector<ColumnId> columns;
    Table projected(table.name());
    for (ColumnId c = 0; c < table.NumColumns(); ++c) {
      if (!keep_column[c]) continue;
      columns.push_back(c);
      projected.AddColumn(table.column_name(c));
    }
    for (const RowId r : rows) {
      std::vector<std::string> cells;
      for (const ColumnId c : columns) cells.push_back(table.cell(r, c));
      (void)projected.AppendRow(std::move(cells));
    }
    mate::BruteForceResult brute =
        mate::BruteForceJoinability(query, key, projected);
    if (brute.joinability <= 0) continue;
    for (ColumnId& c : brute.best_mapping) c = columns[c];
    found.push_back({t, brute.joinability, std::move(brute.best_mapping)});
  }
  std::sort(found.begin(), found.end(),
            [](const TableResult& a, const TableResult& b) {
              if (a.joinability != b.joinability) {
                return a.joinability > b.joinability;
              }
              return a.table_id < b.table_id;
            });
  if (found.size() > static_cast<size_t>(kTopK)) found.resize(kTopK);
  return found;
}

double CheckOracle(const Corpus& corpus, const std::vector<PoolQuery>& pool,
                   const std::vector<size_t>& sample, Report* report) {
  const Clock::time_point start = Clock::now();
  for (const size_t i : sample) {
    if (!SameTopK(pool[i].reference, OracleTopK(corpus, pool[i]))) {
      report->Fail("query " + std::to_string(i) + " (" + pool[i].set +
                   "): top-k differs from the brute-force oracle");
    }
  }
  return SecondsBetween(start, Clock::now());
}

std::vector<size_t> SamplePositions(size_t pool_size, size_t count,
                                    uint64_t seed) {
  std::vector<size_t> all(pool_size);
  std::iota(all.begin(), all.end(), 0);
  mate::Rng rng(seed);
  for (size_t i = 0; i + 1 < all.size(); ++i) {
    std::swap(all[i], all[i + rng.Uniform(all.size() - i)]);
  }
  all.resize(std::min(count, pool_size));
  return all;
}

// ------------------------------------------------------------------ setup

Lake MakeLake(const std::string& kind, double scale,
              size_t queries_per_set) {
  mate::WorkloadConfig config;
  config.scale = scale;
  config.queries_per_set = queries_per_set;
  config.seed = kLakeSeed;
  Lake lake;
  lake.workload = kind == "OD" ? mate::MakeOpenDataWorkload(config)
                               : mate::MakeWebTablesWorkload(config);
  mate::SerializeCorpus(lake.workload.corpus, &lake.corpus_image);
  const Corpus& corpus = lake.workload.corpus;
  lake.tables = corpus.NumTables();
  for (TableId t = 0; t < corpus.NumTables(); ++t) {
    lake.cells += corpus.table_num_rows(t) * corpus.table_num_columns(t);
  }
  return lake;
}

Corpus CopyCorpus(const Lake& lake) {
  auto corpus = mate::DeserializeCorpus(lake.corpus_image);
  if (!corpus.ok()) {
    std::cerr << "perfbench: corpus copy failed: "
              << corpus.status().ToString() << "\n";
    std::exit(1);
  }
  return std::move(*corpus);
}

mate::Session OpenInMemory(const Lake& lake, unsigned session_threads,
                           size_t cache_bytes, SpanLog* log,
                           SetupTimes* times) {
  Corpus corpus = CopyCorpus(lake);
  mate::IndexBuildOptions build;
  build.num_threads = Workers();
  std::unique_ptr<mate::InvertedIndex> index;
  times->build_s = Timed(log, "bench.build_index", [&] {
    auto built = mate::BuildIndex(corpus, build);
    if (built.ok()) index = std::move(*built);
  });
  if (index == nullptr) {
    std::cerr << "perfbench: index build failed\n";
    std::exit(1);
  }
  mate::SessionOptions options;
  options.corpus = std::move(corpus);
  options.index = std::move(index);
  options.num_threads = session_threads;
  options.cache_bytes = cache_bytes;
  std::optional<mate::Session> session;
  times->open_s = Timed(log, "bench.session_open", [&] {
    auto opened = mate::Session::Open(std::move(options));
    if (opened.ok()) session.emplace(std::move(*opened));
  });
  if (!session.has_value()) {
    std::cerr << "perfbench: Session::Open failed\n";
    std::exit(1);
  }
  times->ready_s = Timed(log, "bench.wait_until_ready",
                         [&] { (void)session->WaitUntilReady(); });
  return std::move(*session);
}

void EmitSetup(const std::vector<SetupTimes>& reps, Report* report) {
  const auto median = [&reps](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& r : reps) v.push_back(r.*field);
    return Median(v);
  };
  std::vector<double> totals;
  for (const SetupTimes& r : reps) totals.push_back(r.Total());
  report->Set("setup_s", Median(totals));
  report->Set("index.build_s", median(&SetupTimes::build_s));
  report->Set("storage.save_s", median(&SetupTimes::save_s));
  report->Set("core.session.open_s", median(&SetupTimes::open_s));
  report->Set("core.session.ready_s", median(&SetupTimes::ready_s));
}

void EmitStorage(const mate::Session& session, Report* report) {
  const mate::ResidencyStats residency = session.corpus_residency();
  constexpr double kMb = 1024.0 * 1024.0;
  report->Set("storage.tables_materialized",
              static_cast<double>(residency.tables_resident));
  report->Set("storage.cell_mb_materialized",
              static_cast<double>(residency.bytes_materialized) / kMb);
  report->Set("storage.resident_mb",
              static_cast<double>(residency.resident_bytes) / kMb);
}

void EmitIndexSize(const mate::InvertedIndex& index, Report* report) {
  constexpr double kMb = 1024.0 * 1024.0;
  report->Set("index_mb", static_cast<double>(index.MemoryBytes()) / kMb);
  report->Set("index.posting_mb",
              static_cast<double>(index.PostingBytes()) / kMb);
  report->Set("index.superkey_mb",
              static_cast<double>(index.SuperKeyBytes()) / kMb);
}

// ------------------------------------------------- per-layer accounting

void LayerTotals::Add(const mate::QueryTrace& trace,
                      const mate::DiscoveryResult& result, double wall) {
  ++queries;
  wall_us += wall;
  std::map<uint64_t, double> shard_us;
  for (const mate::TraceSpan& span : trace.Spans()) {
    const double d = static_cast<double>(span.duration_us);
    const std::string& n = span.name;
    double* phase = nullptr;
    if (n == "validate") {
      phase = &validate_us;
    } else if (n == "cache_lookup") {
      phase = &cache_lookup_us;
    } else if (n == "cache_insert") {
      phase = &cache_insert_us;
    } else if (n == "prepare") {
      phase = &prepare_us;
    } else if (n == "fetch") {
      phase = &fetch_us;
    } else if (n == "evaluate") {
      phase = &evaluate_us;
    } else if (n == "merge") {
      phase = &merge_us;
    } else if (n == "readiness_wait") {
      covered_us += d;
    } else if (n == "row_loop") {
      row_loop_us += d;
    } else if (n == "evaluate_shard") {
      shard_us[span.tid] += d;
    }
    if (phase != nullptr) {
      *phase += d;
      covered_us += d;
    }
  }
  if (shard_us.size() > 1) {
    double max = 0, sum = 0;
    for (const auto& [tid, us] : shard_us) {
      max = std::max(max, us);
      sum += us;
    }
    if (sum > 0) {
      skew_sum += max / (sum / static_cast<double>(shard_us.size()));
      ++skew_queries;
    }
  }
  stats.Merge(result.stats);
  shards += static_cast<double>(result.stats.shards_used);
  fanout += static_cast<double>(result.stats.fanout_threads);
}

void LayerTotals::Emit(Report* report) const {
  const auto per_query = [this](double v) { return Mean(v, queries); };
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  report->Set("core.executor.row_loop_us", per_query(row_loop_us));
  report->Set("core.joinability.comparisons_per_verified_row",
              Mean(d(stats.value_comparisons),
                   stats.rows_sent_to_verification));
  report->Set("core.joinability.ns_per_checked_row",
              Mean(row_loop_us * 1000.0, stats.rows_checked));
  report->Set("hash.filter_precision", stats.Precision());
  report->Set("hash.fp_rows", per_query(d(stats.FalsePositiveRows())));
  EmitFanout(report);
  report->Set("core.executor.prepare_us", per_query(prepare_us));
  report->Set("core.executor.fetch_us", per_query(fetch_us));
  report->Set("index.pl_items", per_query(d(stats.pl_items_fetched)));
  report->Set("core.executor.candidate_tables",
              per_query(d(stats.candidate_tables)));
  report->Set("core.executor.rule1_pruned",
              per_query(d(stats.tables_pruned_rule1)));
  report->Set("core.executor.rule2_pruned",
              per_query(d(stats.tables_pruned_rule2)));
  report->Set("core.executor.tables_evaluated",
              per_query(d(stats.tables_evaluated)));
  report->Set("core.executor.rows_checked", per_query(d(stats.rows_checked)));
  report->Set("core.executor.rows_verified",
              per_query(d(stats.rows_sent_to_verification)));
  report->Set("core.executor.value_comparisons",
              per_query(d(stats.value_comparisons)));
  report->Set("core.session.validate_us", per_query(validate_us));
  report->Set("core.session.cache_lookup_us", per_query(cache_lookup_us));
  report->Set("core.session.cache_insert_us", per_query(cache_insert_us));
  report->Set("core.executor.span_coverage",
              wall_us > 0 ? covered_us / wall_us : 0.0);
}

void LayerTotals::EmitFanout(Report* report) const {
  const auto per_query = [this](double v) { return Mean(v, queries); };
  report->Set("core.executor.shards_used", per_query(shards));
  report->Set("core.executor.fanout_threads", per_query(fanout));
  report->Set("core.executor.shard_skew",
              skew_queries > 0 ? Mean(skew_sum, skew_queries) : 1.0);
  report->Set("core.executor.evaluate_us", per_query(evaluate_us));
  report->Set("core.executor.merge_us", per_query(merge_us));
}

// ------------------------------------------------------------ maintenance

void WriteSamples::Emit(Report* report, double tail_percentile) const {
  report->Set("write_p50_us", Percentile(op_us, 50));
  report->Set("write_tail_us", Percentile(op_us, tail_percentile));
  const auto median_of = [this](const char* call) {
    const auto it = index_us.find(call);
    return it == index_us.end() ? 0.0 : Median(it->second);
  };
  report->Set("index.insert_table_us", median_of("InsertTable"));
  report->Set("index.insert_row_us", median_of("InsertRow"));
  report->Set("index.update_cell_us", median_of("UpdateCell"));
  report->Set("index.delete_row_us", median_of("DeleteRow"));
  report->Set("index.delete_table_us", median_of("DeleteTable"));
  report->Set("core.result_cache.invalidate_us", Median(invalidate_us));
}

namespace {

// Times one maintenance operation: `edit` runs the corpus edit and the
// index call, and returns the index call's status and its own seconds.
template <typename Fn>
void TimedWrite(const char* call, WriteSamples* samples, SpanLog* log,
                Report* report, Fn&& edit) {
  const Clock::time_point start = Clock::now();
  double index_seconds = 0.0;
  const Status status = edit(&index_seconds);
  const Clock::time_point end = Clock::now();
  if (log->enabled()) log->Add(std::string("bench.") + call, start, end);
  samples->op_us.push_back(SecondsBetween(start, end) * 1e6);
  samples->index_us[call].push_back(index_seconds * 1e6);
  report->Count(status.ok());
  if (!status.ok()) report->Fail(std::string(call) + ": " + status.ToString());
}

template <typename Fn>
Status TimeIndexCall(double* seconds, Fn&& call) {
  const Clock::time_point start = Clock::now();
  Status status = call();
  *seconds = SecondsBetween(start, Clock::now());
  return status;
}

RowId FirstLiveRow(const Table& table) {
  for (RowId r = 0; r < table.NumRows(); ++r) {
    if (!table.IsRowDeleted(r)) return r;
  }
  return 0;
}

}  // namespace

EditBatch::EditBatch(const Corpus& corpus, const std::vector<PoolQuery>& pool,
                     uint64_t seed) {
  std::vector<size_t> answered;
  for (const size_t i : SamplePositions(pool.size(), pool.size(), seed)) {
    if (!pool[i].reference.empty()) answered.push_back(i);
  }
  if (answered.empty()) {
    std::cerr << "perfbench: no query has a result to edit against\n";
    std::exit(1);
  }
  const auto pick = [&answered](size_t n) {
    return answered[n % answered.size()];
  };
  for (size_t n = 0; n <= 2 * kTargets; ++n) touched_.push_back(pick(n));

  // A table holding the first rows of one query's key columns: after
  // InsertTable it is a strong match for that query.
  const mate::QueryCase& added = *pool[pick(0)].qc;
  new_table_ = Table("perfbench_added");
  for (const ColumnId c : added.key_columns) {
    new_table_.AddColumn(added.query.column_name(c));
  }
  new_table_.AddColumn("perfbench_payload");
  for (RowId r = 0; r < added.query.NumRows() && new_table_.NumRows() < 20;
       ++r) {
    if (added.query.IsRowDeleted(r)) continue;
    std::vector<std::string> cells;
    for (const ColumnId c : added.key_columns) {
      cells.push_back(added.query.cell(r, c));
    }
    cells.push_back("perfbench-payload-" + std::to_string(r));
    (void)new_table_.AppendRow(std::move(cells));
  }

  // Rows holding a query's last key combo under the mapping of its best
  // result table.
  for (size_t n = 1; n <= kTargets; ++n) {
    const PoolQuery& q = pool[pick(n)];
    const TableResult& top = q.reference.front();
    RowInsert insert;
    insert.table = top.table_id;
    const size_t width = corpus.table_num_columns(top.table_id);
    for (size_t c = 0; c < width; ++c) {
      insert.cells.push_back("perfbench-fill-" + std::to_string(c));
    }
    RowId last = q.qc->query.NumRows() - 1;
    while (last > 0 && q.qc->query.IsRowDeleted(last)) --last;
    for (size_t i = 0; i < top.best_mapping.size(); ++i) {
      insert.cells[top.best_mapping[i]] =
          q.qc->query.cell(last, q.qc->key_columns[i]);
    }
    inserts_.push_back(std::move(insert));
  }

  // Overwrites of a mapped key cell in a best result table.
  for (size_t n = kTargets + 1; n <= 2 * kTargets; ++n) {
    const TableResult& top = pool[pick(n)].reference.front();
    CellEdit edit;
    edit.table = top.table_id;
    edit.row = FirstLiveRow(corpus.table(top.table_id));
    edit.column = top.best_mapping.front();
    edit.value = "perfbench-edit-" + std::to_string(n);
    edits_.push_back(std::move(edit));
  }
}

void EditBatch::Apply(mate::Session* session, WriteSamples* samples,
                      SpanLog* log, Report* report) {
  Table copy = new_table_;
  TimedWrite("InsertTable", samples, log, report, [&](double* index_s) {
    added_table_ = session->mutable_corpus()->AddTable(std::move(copy));
    return TimeIndexCall(index_s, [&] {
      return session->mutable_index()->InsertTable(session->corpus(),
                                                   added_table_);
    });
  });
  for (RowInsert& insert : inserts_) {
    std::vector<std::string> cells = insert.cells;
    TimedWrite("InsertRow", samples, log, report, [&](double* index_s) {
      auto row = session->mutable_corpus()
                     ->mutable_table(insert.table)
                     ->AppendRow(std::move(cells));
      if (!row.ok()) return row.status();
      insert.row = *row;
      return TimeIndexCall(index_s, [&] {
        return session->mutable_index()->InsertRow(session->corpus(),
                                                   insert.table, insert.row);
      });
    });
  }
  for (CellEdit& edit : edits_) {
    TimedWrite("UpdateCell", samples, log, report, [&](double* index_s) {
      Table* table = session->mutable_corpus()->mutable_table(edit.table);
      edit.old_value = table->cell(edit.row, edit.column);
      MATE_RETURN_IF_ERROR(table->SetCell(edit.row, edit.column, edit.value));
      const std::string old_norm = mate::NormalizeValue(edit.old_value);
      return TimeIndexCall(index_s, [&] {
        return session->mutable_index()->UpdateCell(
            session->corpus(), edit.table, edit.row, edit.column, old_norm);
      });
    });
  }
}

void EditBatch::Revert(mate::Session* session, WriteSamples* samples,
                       SpanLog* log, Report* report) {
  for (auto it = edits_.rbegin(); it != edits_.rend(); ++it) {
    CellEdit& edit = *it;
    TimedWrite("UpdateCell", samples, log, report, [&](double* index_s) {
      Table* table = session->mutable_corpus()->mutable_table(edit.table);
      MATE_RETURN_IF_ERROR(
          table->SetCell(edit.row, edit.column, edit.old_value));
      const std::string old_norm = mate::NormalizeValue(edit.value);
      return TimeIndexCall(index_s, [&] {
        return session->mutable_index()->UpdateCell(
            session->corpus(), edit.table, edit.row, edit.column, old_norm);
      });
    });
  }
  for (const RowInsert& insert : inserts_) {
    TimedWrite("DeleteRow", samples, log, report, [&](double* index_s) {
      MATE_RETURN_IF_ERROR(TimeIndexCall(index_s, [&] {
        return session->mutable_index()->DeleteRow(session->corpus(),
                                                   insert.table, insert.row);
      }));
      return session->mutable_corpus()
          ->mutable_table(insert.table)
          ->DeleteRow(insert.row);
    });
  }
  TimedWrite("DeleteTable", samples, log, report, [&](double* index_s) {
    MATE_RETURN_IF_ERROR(TimeIndexCall(index_s, [&] {
      return session->mutable_index()->DeleteTable(session->corpus(),
                                                   added_table_);
    }));
    Table* table = session->mutable_corpus()->mutable_table(added_table_);
    for (RowId r = 0; r < table->NumRows(); ++r) {
      if (!table->IsRowDeleted(r)) MATE_RETURN_IF_ERROR(table->DeleteRow(r));
    }
    return Status::OK();
  });
}

std::vector<TableResult> RelabelAdded(std::vector<TableResult> first,
                                      TableId first_added, TableId added) {
  for (TableResult& r : first) {
    if (r.table_id == first_added) r.table_id = added;
  }
  return first;
}

double TimedDiscover(mate::Session* session, const PoolQuery& q,
                     const std::vector<TableResult>& expected,
                     const std::string& tenant, LayerTotals* layers,
                     SpanLog* log, Report* report,
                     unsigned intra_query_threads) {
  mate::QuerySpec spec = SpecFor(q);
  spec.tenant = tenant;
  spec.intra_query_threads = intra_query_threads;
  std::optional<mate::QueryTrace> trace;
  const Clock::time_point start = Clock::now();
  if (layers != nullptr) {
    trace.emplace("perfbench");
    spec.trace = &*trace;
  }
  auto result = session->Discover(spec);
  const Clock::time_point end = Clock::now();
  const double wall_us = SecondsBetween(start, end) * 1e6;
  if (log->enabled()) log->Add("bench.discover", start, end);
  if (!result.ok()) {
    report->Count(false);
    report->Fail(q.set + ": " + result.status().ToString());
    return wall_us / 1e3;
  }
  const bool ok = SameTopK(result->top_k, expected);
  report->Count(ok);
  if (!ok) report->Fail(q.set + ": top-k differs from the reference");
  if (layers != nullptr) {
    layers->Add(*trace, *result, wall_us);
    log->AddQueryTrace(*trace, start);
  }
  return wall_us / 1e3;
}

void InvalidateCache(mate::Session* session, WriteSamples* samples,
                     SpanLog* log) {
  samples->invalidate_us.push_back(
      Timed(log, "bench.invalidate_cache",
            [&] { session->InvalidateCache(); }) *
      1e6);
}

}  // namespace perfbench
