// wt_serve: the web-table lake (many small, narrow tables) saved to files,
// reopened phased and lazy, and served by an in-process MateServer over
// TCP. Four tenants take turns on the connections; query popularity is Zipf
// within each tenant, so the per-tenant result caches see a steady hit
// ratio. Untraced runs measure a closed loop on one connection pinned to
// one CPU with the server; traced runs add the open-loop base rate and rate
// ladder on two connections, timing every request from the moment it was
// due, not from when the generator managed to send it.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "index/index_builder.h"
#include "index/index_io.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/corpus_io.h"
#include "util/rng.h"
#include "util/zipf.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kDefaultScale = 0.25;
constexpr size_t kQueriesPerSet = 16;
// Four tenants take turns on the connections (one load thread each). The
// closed loop runs one connection; the open loop two.
constexpr size_t kTenants = 4;
constexpr size_t kClosedConnections = 1;
constexpr size_t kOpenConnections = 2;
constexpr double kZipfS = 1.1;
// Per-tenant result-cache budget: a few entries, so about a third of the
// requests hit and the rest run the executor. Hit-dominated traffic timed
// mostly thread hand-offs, which swung with the host's load.
constexpr size_t kTenantCacheBytes = 3 << 10;
// The fixed rate ladder: kBaseRate * kLadderStep^i, i < kLadderSteps. Steps
// are 5% apart, so a one-step wobble of max_rate stays within a tenth. The
// base rate sits far below the single dispatcher's capacity, so its
// latencies show service and wire time rather than queueing.
constexpr double kBaseRate = 250;
constexpr double kLadderStep = 1.05;
constexpr int kLadderSteps = 48;
// A ladder rate passes when the p99 latency from due time stays within
// this limit in at least two of its three time windows (one host stall
// cannot sink a rate on its own), nothing failed or was shed, and the
// generator did not fall behind (no growing backlog).
constexpr double kLatencyLimitMs = 50.0;
constexpr double kTailPercentile = 99;
constexpr int kProbeWindows = 3;
// Reported p50 and p99 are medians over this many time windows of a step.
constexpr int kWindows = 4;
// The closed loop runs in this many segments, with a block of maintenance
// cycles (26 writes each) on the writer session after each: 200 cycles,
// 5200 writes, which leaves 52 samples above p99.
constexpr int kClosedSegments = 20;
constexpr int kWriteBlockCycles = 10;
// Share of the open-loop time (half of a traced run) spent at the base
// rate; the rest goes to the ladder search's probes.
constexpr double kBaseShare = 0.4;
constexpr int kSearchProbes = 6;  // ceil(log2(kLadderSteps))
constexpr double kWarmupSeconds = 1.0;
constexpr size_t kOracleSample = 3;

struct StepResult {
  double seconds = 0.0;
  std::vector<size_t> query;         // served requests: pool position
  std::vector<double> due_s;         // served requests: due time in the step
  std::vector<double> from_due_ms;   // served requests, timed from due
  std::vector<double> from_send_ms;  // served requests, timed from send
  std::vector<double> lag_ms;        // send time minus due time
  uint64_t attempted = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;      // transport or non-OK server status
  uint64_t mismatches = 0;  // served top-k differs from the reference
  bool backlog_grew = false;

  /// Percentile `p` of the latency from due time within each of `windows`
  /// equal spans of due time (an empty window reads as infinitely slow).
  std::vector<double> WindowPercentiles(int windows, double p) const {
    std::vector<std::vector<double>> parts(windows);
    for (size_t i = 0; i < due_s.size(); ++i) {
      const int w = std::min(
          windows - 1, static_cast<int>(due_s[i] / seconds * windows));
      parts[w].push_back(from_due_ms[i]);
    }
    std::vector<double> out;
    for (const std::vector<double>& part : parts) {
      out.push_back(part.empty() ? HUGE_VAL : Percentile(part, p));
    }
    return out;
  }

  /// Adds `part`'s requests and counts, its due times moved by `offset_s`.
  void Append(const StepResult& part, double offset_s) {
    query.insert(query.end(), part.query.begin(), part.query.end());
    for (const double d : part.due_s) due_s.push_back(d + offset_s);
    from_due_ms.insert(from_due_ms.end(), part.from_due_ms.begin(),
                       part.from_due_ms.end());
    from_send_ms.insert(from_send_ms.end(), part.from_send_ms.begin(),
                        part.from_send_ms.end());
    lag_ms.insert(lag_ms.end(), part.lag_ms.begin(), part.lag_ms.end());
    attempted += part.attempted;
    shed += part.shed;
    errors += part.errors;
    mismatches += part.mismatches;
    backlog_grew = backlog_grew || part.backlog_grew;
  }

  bool Meets() const {
    if (errors > 0 || mismatches > 0 || shed > 0 || backlog_grew) {
      return false;
    }
    int windows_met = 0;
    for (const double p99 : WindowPercentiles(kProbeWindows, kTailPercentile)) {
      if (p99 <= kLatencyLimitMs) ++windows_met;
    }
    return windows_met >= 2;
  }
};

bool SameServed(const std::vector<mate::ServedResult>& served,
                const std::vector<mate::TableResult>& want) {
  if (served.size() != want.size()) return false;
  for (size_t i = 0; i < served.size(); ++i) {
    if (served[i].table_id != want[i].table_id ||
        served[i].joinability != want[i].joinability ||
        served[i].mapping != want[i].best_mapping) {
      return false;
    }
  }
  return true;
}

// Offers `rate` requests/s for `seconds` as one constant-rate stream whose
// arrivals are dealt round-robin to `connections` connections (open loop).
// A rate of 0 runs the connections closed-loop instead: each sends its next
// request as soon as the previous one is answered, and due time = send time.
StepResult RunStep(uint16_t port, const std::vector<PoolQuery>& pool,
                   const std::vector<mate::QueryRequest>& requests,
                   size_t connections, double rate, double seconds,
                   uint64_t seed) {
  const bool closed = rate <= 0;
  const size_t per_connection =
      closed ? SIZE_MAX
             : static_cast<size_t>(std::ceil(
                   rate * seconds / static_cast<double>(connections)));
  std::vector<StepResult> parts(connections);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      StepResult& out = parts[c];
      auto client = mate::MateClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        out.attempted = out.errors = 1;
        return;
      }
      // Each tenant has its own fixed popularity ranking; the seed draws
      // the request stream. Connection c serves tenants c, c + connections,
      // ... in turn.
      std::vector<std::vector<size_t>> rank;
      for (size_t t = c; t < kTenants; t += connections) {
        rank.push_back(SamplePositions(pool.size(), pool.size(), kLakeSeed + t));
      }
      const mate::ZipfDistribution zipf(pool.size(), kZipfS);
      mate::Rng rng(seed * 7919 + c + 1);
      for (size_t i = 0; i < per_connection; ++i) {
        double offset_s = 0.0;
        Clock::time_point due;
        if (closed) {
          std::this_thread::sleep_until(start);
          due = Clock::now();
          offset_s = SecondsBetween(start, due);
          if (offset_s >= seconds) break;
        } else {
          offset_s = static_cast<double>(i * connections + c) / rate;
          due = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(offset_s));
          std::this_thread::sleep_until(due);
        }
        const size_t turn = i % rank.size();
        const size_t q = rank[turn][zipf.Sample(&rng)];
        mate::QueryRequest request = requests[q];
        request.tenant = "tenant-" + std::to_string(c + turn * connections);
        const Clock::time_point sent = Clock::now();
        auto response = client->Query(request);
        const Clock::time_point done = Clock::now();
        ++out.attempted;
        out.lag_ms.push_back(SecondsBetween(due, sent) * 1e3);
        if (!response.ok()) {
          ++out.errors;  // the transport is gone: this connection stops
          return;
        }
        if (response->status.IsOverloaded()) {
          ++out.shed;
          continue;
        }
        if (!response->status.ok()) {
          ++out.errors;
          continue;
        }
        if (!SameServed(response->results, pool[q].reference)) {
          ++out.mismatches;
        }
        out.query.push_back(q);
        out.due_s.push_back(offset_s);
        out.from_due_ms.push_back(SecondsBetween(due, done) * 1e3);
        out.from_send_ms.push_back(SecondsBetween(sent, done) * 1e3);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  StepResult total;
  total.seconds = seconds;
  for (const StepResult& part : parts) {
    total.Append(part, 0.0);
    // A backlog that grows shows as lateness rising through the step: the
    // last quarter of a connection's sends runs later than its first.
    const size_t quarter = part.lag_ms.size() / 4;
    if (quarter > 0) {
      const std::vector<double> first(part.lag_ms.begin(),
                                      part.lag_ms.begin() + quarter);
      const std::vector<double> last(part.lag_ms.end() - quarter,
                                     part.lag_ms.end());
      if (Median(last) > Median(first) + kLatencyLimitMs / 2) {
        total.backlog_grew = true;
      }
    }
  }
  return total;
}

double Rate(int step) { return kBaseRate * std::pow(kLadderStep, step); }

void StartServer(mate::Session* session,
                 std::optional<mate::MateServer>* server) {
  mate::ServerOptions options;
  options.tenant_cache_bytes = kTenantCacheBytes;
  server->reset();
  server->emplace(session, options);
  const mate::Status status = (*server)->Start();
  if (!status.ok()) {
    std::cerr << "perfbench: server start failed: " << status.ToString()
              << "\n";
    std::exit(1);
  }
}

void CountServed(const StepResult& step, Report* report) {
  for (uint64_t i = 0; i < step.attempted; ++i) {
    report->Count(i >= step.shed + step.errors + step.mismatches);
  }
  if (step.errors > 0 || step.mismatches > 0) {
    report->Fail("served " + std::to_string(step.errors) + " errors and " +
                 std::to_string(step.mismatches) + " wrong top-k");
  }
}

// The open-loop half of a traced run, on a fresh server: the base rate,
// then a binary search of the ladder for the highest rate that meets the
// latency limit. Sets the server-layer and cache metrics.
void OpenLoop(const Args& args, mate::Session* session,
              std::optional<mate::MateServer>* server,
              const std::vector<PoolQuery>& pool,
              const std::vector<mate::QueryRequest>& requests, SpanLog* log,
              Report* report, RunInfo* info) {
  StartServer(session, server);
  const uint16_t port = (*server)->port();
  const double open_s = args.seconds / 2;

  // The base rate, with the server's queue depth sampled from this process.
  uint64_t queue_depth_max = 0;
  std::atomic<bool> base_done{false};
  std::thread sampler([&] {
    while (!base_done.load()) {
      queue_depth_max =
          std::max<uint64_t>(queue_depth_max, (*server)->stats().queue_depth);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  const Clock::time_point base_start = Clock::now();
  const StepResult base =
      RunStep(port, pool, requests, kOpenConnections, kBaseRate,
              open_s * kBaseShare, args.seed + 2);
  const Clock::time_point base_end = Clock::now();
  base_done.store(true);
  sampler.join();
  log->Add("bench.base_rate_step", base_start, base_end);
  CountServed(base, report);
  const mate::ServerStatsSnapshot stats = (*server)->stats();
  const double client_p50 = Percentile(base.from_send_ms, 50);
  report->Set("server.open_p50_ms",
              Median(base.WindowPercentiles(kWindows, 50)));
  report->Set("server.open_p99_ms",
              Median(base.WindowPercentiles(kWindows, kTailPercentile)));
  report->Set("server.service_p50_us",
              static_cast<double>(stats.latency_p50_us));
  report->Set("server.wire_us",
              client_p50 * 1e3 - static_cast<double>(stats.latency_p50_us));
  report->Set("server.queue_depth_max", static_cast<double>(queue_depth_max));
  report->Set("server.shed_frac",
              base.attempted > 0 ? static_cast<double>(base.shed) /
                                       static_cast<double>(base.attempted)
                                 : 0.0);
  report->Set("server.generator_lag_ms",
              Percentile(base.lag_ms, kTailPercentile));
  report->Set("core.result_cache.hit_ratio",
              stats.cache_hits + stats.cache_misses > 0
                  ? static_cast<double>(stats.cache_hits) /
                        static_cast<double>(stats.cache_hits +
                                            stats.cache_misses)
                  : 0.0);
  report->Set("core.result_cache.evictions",
              static_cast<double>(session->cache_stats().evictions));

  // Binary search of the ladder. Probe requests are checked like any
  // other; a shed only disqualifies the rate.
  int lo = base.Meets() ? 0 : -1;
  int hi = kLadderSteps - 1;
  const double probe_s = open_s * (1 - kBaseShare) / kSearchProbes;
  std::string probes;
  uint64_t seed = args.seed + 3;
  while (lo >= 0 && lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    const Clock::time_point probe_start = Clock::now();
    const StepResult probe =
        RunStep(port, pool, requests, kOpenConnections, Rate(mid), probe_s,
                seed++);
    log->Add("bench.ladder_probe", probe_start, Clock::now());
    if (probe.errors > 0 || probe.mismatches > 0) {
      report->Fail("ladder probe served errors or wrong top-k");
    }
    probes += (probes.empty() ? "" : ", ") + std::to_string(Rate(mid));
    if (probe.Meets()) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  report->Set("server.max_rate_qps", lo >= 0 ? Rate(lo) : 0.0);
  info->Add("base_rate_qps", kBaseRate);
  info->Add("base_samples", static_cast<double>(base.from_due_ms.size()));
  info->Add("latency_limit_ms", kLatencyLimitMs);
  std::ostringstream ladder;
  ladder << '"' << kBaseRate << " * " << kLadderStep << "^i, i < "
         << kLadderSteps << '"';
  info->Add("ladder", ladder.str());
  info->Add("offered_rates", "[" + probes + "]");
  std::cerr << "wt_serve: open loop base p50 "
            << Median(base.WindowPercentiles(kWindows, 50)) << " ms, lag p50 "
            << Percentile(base.lag_ms, 50) << " ms, hits " << stats.cache_hits
            << " misses " << stats.cache_misses << ", service p50 "
            << stats.latency_p50_us << " us, max rate "
            << (lo >= 0 ? Rate(lo) : 0.0) << " (probes " << probes << ")\n";
}

}  // namespace

void RunWtServe(const Args& args, Report* report, RunInfo* info,
                SpanLog* log) {
  const double scale = args.scale > 0 ? args.scale : kDefaultScale;
  const Lake lake = MakeLake("WT", scale, kQueriesPerSet);
  std::vector<PoolQuery> pool = QueryPool(lake.workload);

  const std::string dir =
      args.out_dir + "/wt_serve_" + std::to_string(getpid());
  std::filesystem::create_directories(dir);
  const std::string corpus_path = dir + "/lake.corpus";
  const std::string index_path = dir + "/lake.index";

  // Each repetition: build, save, phased/lazy open, readiness, server
  // start. The last repetition's in-memory lake gives the references.
  std::vector<SetupTimes> reps(kSetupRepsWt);
  std::optional<mate::MateServer> server;
  std::optional<mate::Session> session;
  mate::Corpus built_corpus;
  std::unique_ptr<mate::InvertedIndex> built_index;
  for (SetupTimes& rep : reps) {
    server.reset();
    session.reset();
    built_corpus = CopyCorpus(lake);
    mate::IndexBuildOptions build;
    build.num_threads = Workers();
    mate::IndexBuildReport build_report;
    rep.build_s = Timed(log, "bench.build_index", [&] {
      auto built =
          mate::BuildIndexWithReport(built_corpus, build, &build_report);
      built_index = built.ok() ? std::move(*built) : nullptr;
    });
    mate::Status saved;
    rep.save_s = Timed(log, "bench.save", [&] {
      saved = mate::SaveCorpus(built_corpus, build_report.corpus_stats,
                               corpus_path);
      if (saved.ok() && built_index != nullptr) {
        saved = mate::SaveIndex(*built_index, build.hash_family,
                                build_report.corpus_stats, index_path);
      }
    });
    if (built_index == nullptr || !saved.ok()) {
      std::cerr << "perfbench: build or save failed: " << saved.ToString()
                << "\n";
      std::exit(1);
    }
    rep.open_s = Timed(log, "bench.session_open", [&] {
      mate::SessionOptions options;
      options.corpus_path = corpus_path;
      options.index_path = index_path;
      // A serial session: every query runs on the dispatcher thread, as the
      // serving path is meant to, instead of fanning its largest WT (1000)
      // queries out across a pool that shares the cores with the server's
      // connection threads and the load generator.
      options.num_threads = 1;
      // Strictly on-demand materialization: first touches land in the
      // queries that cause them, not in a background warmer.
      options.warm_corpus = false;
      auto opened = mate::Session::Open(std::move(options));
      if (opened.ok()) session.emplace(std::move(*opened));
    });
    if (!session.has_value()) {
      std::cerr << "perfbench: Session::Open failed\n";
      std::exit(1);
    }
    mate::Status ready;
    rep.ready_s = Timed(log, "bench.wait_until_ready",
                        [&] { ready = session->WaitUntilReady(); });
    if (!ready.ok()) report->Fail("WaitUntilReady: " + ready.ToString());
    rep.server_start_s =
        Timed(log, "bench.server_start", [&] { StartServer(&*session, &server); });
  }
  EmitSetup(reps, report);
  EmitIndexSize(session->index(), report);

  for (PoolQuery& q : pool) {
    q.reference = SerialTopK(built_corpus, *built_index, q);
  }
  const double oracle_s =
      CheckOracle(lake.workload.corpus, pool,
                  SamplePositions(pool.size(), kOracleSample, args.seed),
                  report);
  std::vector<mate::QueryRequest> requests;
  for (const PoolQuery& q : pool) {
    requests.push_back(mate::MakeQueryRequest(q.qc->query, q.qc->key_columns,
                                              kTopK, ""));
  }

  // Writes go to a separate in-memory copy of the lake (set up untimed), in
  // blocks between the closed loop's segments, so they sample the host
  // across the whole run and never edit the served lake.
  SpanLog no_spans(false);
  SetupTimes writer_setup;
  mate::Session writer =
      OpenInMemory(lake, /*session_threads=*/1,
                   mate::SessionOptions::kDefaultCacheBytes, &no_spans,
                   &writer_setup);
  EditBatch batch(writer.corpus(), pool, kLakeSeed);
  WriteSamples warmup;
  MaintenanceCycles(&writer, &batch, kWriteWarmupCycles, &warmup, log, report);
  WriteSamples writes;

  // The closed loop runs on a fresh server, started with this thread pinned
  // to one CPU: the load thread, the server's connection thread and its
  // dispatcher inherit the pin, so each hand-off is a context switch on one
  // CPU instead of a wake-up of another vCPU, whose latency on a shared host
  // is the hypervisor's.
  const double closed_s = args.trace ? args.seconds / 2 : args.seconds;
  StepResult closed;
  closed.seconds = closed_s;
  {
    const PinToOneCpu pin;
    StartServer(&*session, &server);
    // Warm-up fills the tenant caches (not measured).
    const StepResult warm =
        RunStep(server->port(), pool, requests, kClosedConnections,
                /*rate=*/0, kWarmupSeconds, args.seed);
    CountServed(warm, report);
    // Closed loop: the connection keeps one request in flight. Its
    // latencies and throughput are the end-to-end metrics (see README.md
    // for why the open-loop figures below are per-layer only).
    const double segment_s = closed_s / kClosedSegments;
    for (int i = 0; i < kClosedSegments; ++i) {
      const Clock::time_point segment_start = Clock::now();
      closed.Append(RunStep(server->port(), pool, requests,
                            kClosedConnections, /*rate=*/0, segment_s,
                            args.seed + 1 + i),
                    i * segment_s);
      if (log->enabled()) {
        log->Add("bench.closed_loop", segment_start, Clock::now());
      }
      MaintenanceCycles(&writer, &batch, kWriteBlockCycles, &writes, log,
                        report);
    }
    server.reset();
    info->Add("pinned_cpu", static_cast<double>(pin.cpu()));
  }
  writes.Emit(report, kWriteTailPercentile);
  CountServed(closed, report);
  const double p50 = Median(closed.WindowPercentiles(kWindows, 50));
  const double tail =
      Median(closed.WindowPercentiles(kWindows, kTailPercentile));
  const double qps =
      static_cast<double>(closed.from_due_ms.size()) / closed_s;
  report->Set("query_p50_ms", p50);
  report->Set("query_tail_ms", tail);
  report->Set("query_qps", qps);
  std::cerr << "wt_serve: closed loop p50 " << p50 << " ms p99 " << tail
            << " ms, " << qps << " queries/s\n";
  if (args.trace) {
    OpenLoop(args, &*session, &server, pool, requests, log, report, info);
  }
  server.reset();

  // In-process passes over the pool on the served session: untraced, then
  // traced, each under a fresh tenant so every query runs the executor.
  std::vector<double> plain_ms;
  for (const PoolQuery& q : pool) {
    plain_ms.push_back(TimedDiscover(&*session, q, q.reference,
                                     "perfbench-plain", nullptr, log, report));
  }
  if (args.trace) {
    LayerTotals layers;
    std::vector<double> traced_ms;
    for (const PoolQuery& q : pool) {
      traced_ms.push_back(TimedDiscover(&*session, q, q.reference,
                                        "perfbench-traced", &layers, log,
                                        report));
    }
    layers.Emit(report);
    report->Set("trace.overhead_frac",
                Median(traced_ms) / Median(plain_ms) - 1.0);
  }

  EmitStorage(*session, report);
  // Every Revert restored the writer's lake: its answers still equal the
  // references.
  Recheck(&writer, pool, SamplePositions(pool.size(), 8, args.seed + 2), log,
          report);
  session.reset();
  std::filesystem::remove_all(dir);

  info->Add("scale", scale);
  info->Add("lake_seed", static_cast<double>(kLakeSeed));
  info->Add("tables", static_cast<double>(lake.tables));
  info->Add("cells", static_cast<double>(lake.cells));
  info->Add("distinct_queries", static_cast<double>(pool.size()));
  info->Add("tenants", static_cast<double>(kTenants));
  info->Add("connections", static_cast<double>(kClosedConnections));
  info->Add("loop", "\"closed, one request in flight per connection\"");
  info->Add("query_samples", static_cast<double>(closed.from_due_ms.size()));
  info->Add("query_tail_percentile", kTailPercentile);
  info->Add("writes", static_cast<double>(writes.op_us.size()));
  info->Add("write_tail_percentile", kWriteTailPercentile);
  info->Add("oracle_queries", static_cast<double>(kOracleSample));
  info->Add("oracle_s", oracle_s);
}

}  // namespace perfbench
