// perfbench — the repository benchmark. One workload per run:
//
//   perfbench --workload od_large|wt_serve|lake_churn --seed N --seconds S
//             --trace 0|1 [--scale X] [--out-dir DIR] [--commit SHA]
//
// Prints a run_info JSON line, then, as the last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1 (which also
// writes a Chrome trace to DIR). Exits non-zero on any wrong result.
// run.py builds this binary and is the usual entry point.

#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace") {
        args->trace = std::stoi(value) != 0;
      } else if (flag == "--scale") {
        args->scale = std::stod(value);
      } else if (flag == "--out-dir") {
        args->out_dir = value;
      } else if (flag == "--commit") {
        args->commit = value;
      } else {
        std::cerr << "perfbench: unknown flag " << flag << "\n";
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "perfbench: bad value for " << flag << ": " << value
                << "\n";
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload od_large|wt_serve|lake_churn "
                 "--seed N --seconds S --trace 0|1 [--scale X] "
                 "[--out-dir DIR] [--commit SHA]\n";
    return 2;
  }
  perfbench::Report report;
  perfbench::RunInfo info(args);
  perfbench::SpanLog log(args.trace);
  if (args.workload == "od_large") {
    perfbench::RunOdLarge(args, &report, &info, &log);
  } else if (args.workload == "wt_serve") {
    perfbench::RunWtServe(args, &report, &info, &log);
  } else if (args.workload == "lake_churn") {
    perfbench::RunLakeChurn(args, &report, &info, &log);
  } else {
    std::cerr << "perfbench: unknown workload " << args.workload << "\n";
    return 2;
  }
  report.Set("peak_rss_mb", perfbench::PeakRssMb());

  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/trace_" + args.workload +
                             "_" + std::to_string(args.seed) + ".json";
    const mate::Status status = log.WriteChromeTrace(path);
    if (!status.ok()) {
      std::cerr << "perfbench: writing " << path
                << " failed: " << status.ToString() << "\n";
      return 1;
    }
    info.Add("chrome_trace", "\"" + path + "\"");
  }
  std::string line;
  const bool complete = report.ResultLine(args.trace, &line);
  std::cout << info.Line() << "\n" << line << std::endl;
  return complete && report.correct() ? 0 : 1;
}
