// od_large: the open-data lake (few wide, tall tables) queried in process
// by one closed-loop caller. Verification-bound; the server and the result
// cache are bypassed. The timed queries run serially: a query fanned out
// over the pool waits for its slowest shard, and so for every vCPU a shared
// host lends it, which made its latency swing by half between runs. Fan-out
// is measured in traced runs only, the one workload where it engages.

#include <functional>
#include <iostream>
#include <optional>

#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Scale 0.01 (60 tables, 0.35M cells) keeps a query's data in the CPU's
// own caches. From scale 0.02 up, the loop waits on memory: a process
// streaming through 256 MB on another CPU of the same VM made p50 and p90
// half as large again, and other tenants of a shared host do the same at
// times, which moved ten-run medians by two fifths between sets. At 0.01 the
// same stream moved nothing, and the profile stays verification-bound (the
// row loop is about 80% of a query, 75 value comparisons per verified row,
// filter precision 0.24). Sixteen queries per set keep the latency
// distribution smooth: with eight, p50 sat between the repeats of two
// queries whose costs differ by a fifth.
constexpr double kDefaultScale = 0.01;
constexpr size_t kQueriesPerSet = 16;
// Schedule weight of each query set (OD (100), OD (1000), OD (10000)). A
// schedule cycle holds 16 + 48 + 80 = 144 queries, and every run measures
// whole cycles. With these weights p50 falls on a query whose neighbours in
// cost are within 7% of it, so noise cannot flip p50 between two queries of
// different cost; with 1:2:5 it fell between two queries 13% apart. p99
// falls inside the repeats of the costliest query.
constexpr size_t kSetWeight[] = {1, 3, 5};
// Tail percentile: a run of the default length measures about 7000
// queries, which leaves about 70 samples above p99.
constexpr double kTailPercentile = 99;
constexpr size_t kMinCycles = 2;
// One maintenance cycle (26 writes) on the writer session after every this
// many queries.
constexpr size_t kQueriesPerWriteCycle = 16;
// intra_query_threads of the measured loops. The end-to-end loop runs every
// query serially; auto fan-out runs only in the traced fan-out cycle.
constexpr unsigned kSerial = 1;
constexpr unsigned kAutoFanout = 0;

struct LoopResult {
  std::vector<double> latencies_ms;
  size_t cycles = 0;
  double elapsed_s = 0.0;
};

// Closed loop over whole cycles of `schedule` until `seconds` have passed
// and at least kMinCycles ran, or over exactly `cycles` cycles when that is
// non-zero. `threads` is each query's intra_query_threads. `after_query`,
// when set, runs after each query; its time counts neither as query time
// nor toward `seconds`.
LoopResult RunLoop(mate::Session* session, const std::vector<PoolQuery>& pool,
                   const std::vector<size_t>& schedule, double seconds,
                   size_t cycles, unsigned threads, LayerTotals* layers,
                   SpanLog* log, Report* report,
                   const std::function<void()>& after_query = nullptr) {
  LoopResult out;
  const Clock::time_point start = Clock::now();
  double other_s = 0.0;
  do {
    for (const size_t i : schedule) {
      const PoolQuery& q = pool[i];
      out.latencies_ms.push_back(
          TimedDiscover(session, q, q.reference, "", layers, log, report,
                        threads));
      if (after_query) {
        const Clock::time_point before = Clock::now();
        after_query();
        other_s += SecondsBetween(before, Clock::now());
      }
    }
    ++out.cycles;
    out.elapsed_s = SecondsBetween(start, Clock::now()) - other_s;
  } while (cycles > 0 ? out.cycles < cycles
                      : out.elapsed_s < seconds || out.cycles < kMinCycles);
  return out;
}

}  // namespace

void RunOdLarge(const Args& args, Report* report, RunInfo* info,
                SpanLog* log) {
  const double scale = args.scale > 0 ? args.scale : kDefaultScale;
  const Lake lake = MakeLake("OD", scale, kQueriesPerSet);
  std::vector<PoolQuery> pool = QueryPool(lake.workload);

  // The last set-up repetition serves the queries; the first stays open as
  // the writer, so maintenance never edits the lake the queries run on.
  std::vector<SetupTimes> reps(kSetupRepsOd);
  std::optional<mate::Session> writer;
  std::optional<mate::Session> session;
  for (SetupTimes& rep : reps) {
    session.reset();
    session.emplace(
        OpenInMemory(lake, Workers(), /*cache_bytes=*/0, log, &rep));
    if (!writer.has_value()) writer.swap(session);
  }
  EmitSetup(reps, report);
  EmitIndexSize(session->index(), report);

  for (PoolQuery& q : pool) {
    q.reference = SerialTopK(session->corpus(), session->index(), q);
  }
  // Oracle sample: one pool query per run, rotating with the seed, so
  // consecutive seeds cover the whole pool (brute force costs up to seconds
  // per OD (10000) query).
  const std::vector<size_t> oracle_sample = {args.seed % pool.size()};
  const double oracle_s =
      CheckOracle(lake.workload.corpus, pool, oracle_sample, report);

  std::vector<size_t> schedule;
  for (size_t i = 0; i < pool.size(); ++i) {
    schedule.insert(schedule.end(), kSetWeight[pool[i].set_index], i);
  }
  const std::vector<size_t> order =
      SamplePositions(schedule.size(), schedule.size(), args.seed + 1);
  std::vector<size_t> shuffled;
  for (const size_t i : order) shuffled.push_back(schedule[i]);

  // One untimed cycle first: the first pass over the schedule ran up to a
  // fifth slower than the next (allocator arenas and caches warming up).
  RunLoop(&*session, pool, shuffled, 0, /*cycles=*/1, kSerial, nullptr, log,
          report);

  // Writes go to the writer session, one maintenance cycle after every
  // kQueriesPerWriteCycle queries, so they sample the host across the whole
  // run rather than one moment of it. The traced loop interleaves them the
  // same way (untimed), so both loops' queries find the caches alike.
  EditBatch batch(writer->corpus(), pool, kLakeSeed);
  WriteSamples warmup;
  MaintenanceCycles(&*writer, &batch, kWriteWarmupCycles, &warmup, log,
                    report);
  WriteSamples writes;
  WriteSamples traced_writes;
  size_t queries_run = 0;
  const auto interleave_writes = [&](WriteSamples* samples) {
    return [&, samples] {
      if (++queries_run % kQueriesPerWriteCycle == 0) {
        MaintenanceCycles(&*writer, &batch, 1, samples, log, report);
      }
    };
  };

  // With tracing, the untraced loop gets half the run's seconds, the traced
  // loop replays exactly its queries, and one traced cycle with auto
  // fan-out follows.
  const double loop_s = args.trace ? args.seconds / 2 : args.seconds;
  const LoopResult plain =
      RunLoop(&*session, pool, shuffled, loop_s, /*cycles=*/0, kSerial,
              nullptr, log, report, interleave_writes(&writes));
  const double p50 = Percentile(plain.latencies_ms, 50);
  report->Set("query_p50_ms", p50);
  report->Set("query_tail_ms",
              Percentile(plain.latencies_ms, kTailPercentile));
  report->Set("query_qps", static_cast<double>(plain.latencies_ms.size()) /
                               plain.elapsed_s);
  if (args.trace) {
    LayerTotals layers;
    const LoopResult traced =
        RunLoop(&*session, pool, shuffled, loop_s, plain.cycles, kSerial,
                &layers, log, report, interleave_writes(&traced_writes));
    layers.Emit(report);
    report->Set("trace.overhead_frac",
                Percentile(traced.latencies_ms, 50) / p50 - 1.0);
    LayerTotals fanout;
    RunLoop(&*session, pool, shuffled, 0, /*cycles=*/1, kAutoFanout, &fanout,
            log, report);
    fanout.EmitFanout(report);
  }

  writes.Emit(report, kWriteTailPercentile);
  // Every Revert restored the writer's lake: its answers still equal the
  // references.
  Recheck(&*writer, pool, SamplePositions(pool.size(), 4, args.seed + 2), log,
          report);
  report->NotApplicable(ServerMetrics());
  report->NotApplicable(InMemoryStorageMetrics());
  report->NotApplicable({"core.result_cache.hit_ratio",
                         "core.result_cache.evictions"});

  info->Add("scale", scale);
  info->Add("lake_seed", static_cast<double>(kLakeSeed));
  info->Add("tables", static_cast<double>(lake.tables));
  info->Add("cells", static_cast<double>(lake.cells));
  info->Add("distinct_queries", static_cast<double>(pool.size()));
  info->Add("query_samples", static_cast<double>(plain.latencies_ms.size()));
  info->Add("schedule_cycles", static_cast<double>(plain.cycles));
  info->Add("query_tail_percentile", kTailPercentile);
  info->Add("loop", "\"closed, 1 caller\"");
  info->Add("session_threads", static_cast<double>(session->num_threads()));
  info->Add("writes", static_cast<double>(writes.op_us.size()));
  info->Add("write_tail_percentile", kWriteTailPercentile);
  info->Add("oracle_queries", static_cast<double>(oracle_sample.size()));
  info->Add("oracle_s", oracle_s);
  std::cerr << "od_large: " << plain.latencies_ms.size() << " queries, p50 "
            << p50 << " ms, oracle " << oracle_s << " s\n";
}

}  // namespace perfbench
