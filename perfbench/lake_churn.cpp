// lake_churn: the web-table lake under a fixed-length sequence of §5.4
// maintenance batches. Each Apply and each Revert is followed by
// InvalidateCache and one pass over the whole query pool in a seeded order,
// so every query runs the executor against the freshly edited lake, and a
// missed invalidation would serve the other state's cached answer. Every
// batch is net-neutral (EditBatch), so each run performs the same number of
// operations on a lake that ends the same size.
// Also home of the maintenance cycles od_large and wt_serve interleave with
// their query phase on a second session, so every workload reports write
// latency on its lake.

#include <iostream>
#include <optional>

#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kDefaultScale = 0.25;
// An odd pool (45 queries): each phase runs every query once, so p50 and
// p99 land inside one query's run of samples, not between two queries.
constexpr size_t kQueriesPerSet = 15;
// Maintenance batches (one Apply + one Revert) per second of --seconds:
// the op count is fixed by the run length, never by elapsed time, and is
// sized so a run takes about --seconds on a 4-core x86 host. Every batch
// leaves one tombstoned table behind, so the lake grows by 8 tables per
// second of --seconds, the same in every run.
constexpr double kBatchesPerSecond = 8;
constexpr double kTailPercentile = 99;
constexpr size_t kOracleSample = 3;

struct ChurnResult {
  std::vector<double> latencies_ms;
  double elapsed_s = 0.0;
};

}  // namespace

const std::vector<std::string>& ServerMetrics() {
  static const std::vector<std::string> kNames = {
      "server.service_p50_us", "server.wire_us", "server.queue_depth_max",
      "server.shed_frac", "server.generator_lag_ms", "server.open_p50_ms",
      "server.open_p99_ms", "server.max_rate_qps"};
  return kNames;
}

const std::vector<std::string>& InMemoryStorageMetrics() {
  static const std::vector<std::string> kNames = {
      "storage.tables_materialized", "storage.cell_mb_materialized",
      "storage.resident_mb"};
  return kNames;
}

void MaintenanceCycles(mate::Session* session, EditBatch* batch, int cycles,
                       WriteSamples* writes, SpanLog* log, Report* report) {
  for (int c = 0; c < cycles; ++c) {
    batch->Apply(session, writes, log, report);
    InvalidateCache(session, writes, log);
    batch->Revert(session, writes, log, report);
    InvalidateCache(session, writes, log);
  }
}

void Recheck(mate::Session* session, const std::vector<PoolQuery>& pool,
             const std::vector<size_t>& recheck, SpanLog* log,
             Report* report) {
  for (const size_t i : recheck) {
    const PoolQuery& q = pool[i];
    TimedDiscover(session, q, q.reference, "", nullptr, log, report);
  }
}

void RunLakeChurn(const Args& args, Report* report, RunInfo* info,
                  SpanLog* log) {
  const double scale = args.scale > 0 ? args.scale : kDefaultScale;
  const Lake lake = MakeLake("WT", scale, kQueriesPerSet);
  std::vector<PoolQuery> pool = QueryPool(lake.workload);

  std::vector<SetupTimes> reps(kSetupRepsWt);
  std::optional<mate::Session> session;
  for (SetupTimes& rep : reps) {
    session.reset();
    // A serial session: fanning the largest WT (1000) queries out over a
    // 4-thread pool made their latency swing by 2x between runs on a shared
    // 4-core host, and the web-table queries are not what fan-out is for.
    session.emplace(OpenInMemory(lake, /*session_threads=*/1,
                                 mate::SessionOptions::kDefaultCacheBytes,
                                 log, &rep));
  }
  EmitSetup(reps, report);
  EmitIndexSize(session->index(), report);

  for (PoolQuery& q : pool) {
    q.reference = SerialTopK(session->corpus(), session->index(), q);
  }
  double oracle_s =
      CheckOracle(lake.workload.corpus, pool,
                  SamplePositions(pool.size(), kOracleSample, args.seed),
                  report);

  // Untimed first cycle: record what every query returns after an Apply,
  // check the queries the batch targets against the oracle over the edited
  // lake, and confirm Revert restores the original answers.
  EditBatch batch(session->corpus(), pool, kLakeSeed);
  WriteSamples untimed;
  batch.Apply(&*session, &untimed, log, report);
  session->InvalidateCache();
  std::vector<PoolQuery> applied = pool;
  for (PoolQuery& q : applied) {
    q.reference = SerialTopK(session->corpus(), session->index(), q);
  }
  oracle_s += CheckOracle(session->corpus(), applied,
                          batch.touched_queries(), report);
  const mate::TableId first_added = batch.added_table();
  batch.Revert(&*session, &untimed, log, report);
  session->InvalidateCache();
  for (const PoolQuery& q : pool) {
    if (!SameTopK(SerialTopK(session->corpus(), session->index(), q),
                  q.reference)) {
      report->Fail(q.set + ": Revert did not restore the original top-k");
    }
  }

  const auto total_batches = static_cast<size_t>(
      std::max(1.0, args.seconds * kBatchesPerSecond));
  WriteSamples writes;

  // Both halves of a traced run replay the same query order.
  const auto churn = [&](size_t batches, LayerTotals* layers) {
    ChurnResult out;
    uint64_t order_seed = args.seed;
    const Clock::time_point start = Clock::now();
    for (size_t b = 0; b < batches; ++b) {
      batch.Apply(&*session, &writes, log, report);
      InvalidateCache(&*session, &writes, log);
      for (const size_t i : SamplePositions(pool.size(), pool.size(),
                                            order_seed++)) {
        const PoolQuery& q = applied[i];
        out.latencies_ms.push_back(TimedDiscover(
            &*session, q,
            RelabelAdded(q.reference, first_added, batch.added_table()), "",
            layers, log, report));
      }
      batch.Revert(&*session, &writes, log, report);
      InvalidateCache(&*session, &writes, log);
      for (const size_t i : SamplePositions(pool.size(), pool.size(),
                                            order_seed++)) {
        const PoolQuery& q = pool[i];
        out.latencies_ms.push_back(TimedDiscover(
            &*session, q, q.reference, "", layers, log, report));
      }
    }
    out.elapsed_s = SecondsBetween(start, Clock::now());
    return out;
  };

  // With tracing, an untraced and a traced half split the batches.
  const size_t plain_batches = args.trace ? total_batches / 2 : total_batches;
  const ChurnResult plain = churn(plain_batches, nullptr);
  const double p50 = Percentile(plain.latencies_ms, 50);
  report->Set("query_p50_ms", p50);
  report->Set("query_tail_ms",
              Percentile(plain.latencies_ms, kTailPercentile));
  report->Set("query_qps", static_cast<double>(plain.latencies_ms.size()) /
                               plain.elapsed_s);
  if (args.trace) {
    LayerTotals layers;
    const ChurnResult traced = churn(plain_batches, &layers);
    layers.Emit(report);
    report->Set("trace.overhead_frac",
                Percentile(traced.latencies_ms, 50) / p50 - 1.0);
  }
  writes.Emit(report, kWriteTailPercentile);

  const mate::ResultCacheStats cache = session->cache_stats();
  report->Set("core.result_cache.hit_ratio", cache.HitRate());
  report->Set("core.result_cache.evictions",
              static_cast<double>(cache.evictions));
  report->NotApplicable(ServerMetrics());
  report->NotApplicable(InMemoryStorageMetrics());

  info->Add("scale", scale);
  info->Add("lake_seed", static_cast<double>(kLakeSeed));
  info->Add("tables", static_cast<double>(lake.tables));
  info->Add("cells", static_cast<double>(lake.cells));
  info->Add("distinct_queries", static_cast<double>(pool.size()));
  info->Add("batches", static_cast<double>(total_batches));
  info->Add("writes", static_cast<double>(writes.op_us.size()));
  info->Add("query_samples", static_cast<double>(plain.latencies_ms.size()));
  info->Add("query_tail_percentile", kTailPercentile);
  info->Add("write_tail_percentile", kWriteTailPercentile);
  info->Add("loop", "\"closed, 1 caller\"");
  info->Add("oracle_queries",
            static_cast<double>(kOracleSample + batch.touched_queries().size()));
  info->Add("oracle_s", oracle_s);
  info->Add("tables_at_end", static_cast<double>(session->corpus().NumTables()));
  std::cerr << "lake_churn: " << total_batches << " batches, "
            << plain.latencies_ms.size() << " queries in " << plain.elapsed_s
            << " s, p50 " << p50 << " ms, oracle " << oracle_s << " s\n";
}

}  // namespace perfbench
