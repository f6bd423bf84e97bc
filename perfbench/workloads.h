// The three benchmark workloads. Each generates its lake from args.seed,
// sets up, checks results against references and a brute-force oracle
// sample, measures, and fills `report` with every end-to-end and
// per-layer metric (see README.md for definitions and predictions).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Few wide, tall open-data tables; OD(1000)/OD(10000)-heavy closed loop
/// through in-process Session::Discover, cache off, auto fan-out.
void RunOdLarge(const Args& args, Report* report, RunInfo* info,
                SpanLog* log);

/// Many small web tables saved, reopened phased/lazy and served by an
/// in-process MateServer to a multi-tenant TCP load: closed loop, plus the
/// open-loop rate ladder in traced runs.
void RunWtServe(const Args& args, Report* report, RunInfo* info,
                SpanLog* log);

/// The web-table lake under a fixed sequence of §5.4 maintenance batches
/// interleaved with queries and cache invalidations.
void RunLakeChurn(const Args& args, Report* report, RunInfo* info,
                  SpanLog* log);

/// Metric names of the server layer (only wt_serve exercises it).
const std::vector<std::string>& ServerMetrics();

/// Storage metrics of a lake adopted in memory: nothing is saved, nothing
/// materializes, and residency tracks only file-backed corpora.
const std::vector<std::string>& InMemoryStorageMetrics();

/// Untimed warm-up Apply/Revert cycles before the timed ones (od_large,
/// wt_serve), and the tail percentile of every workload's write metrics.
inline constexpr int kWriteWarmupCycles = 20;
inline constexpr double kWriteTailPercentile = 99;

/// `cycles` Apply/Revert cycles of `batch` on `session`, each half followed
/// by InvalidateCache, timed into `writes`. The session must be idle and
/// fully resident. After it, the lake answers every query as before.
void MaintenanceCycles(mate::Session* session, EditBatch* batch, int cycles,
                       WriteSamples* writes, SpanLog* log, Report* report);

/// Runs pool[i] for i in `recheck` on `session` and checks each against its
/// reference; the latencies are not reported.
void Recheck(mate::Session* session, const std::vector<PoolQuery>& pool,
             const std::vector<size_t>& recheck, SpanLog* log,
             Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
