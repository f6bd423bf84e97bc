// Signature-generation throughput of every super-key hash family: one
// AddValue per cell is the hashing cost of the index build, of each §5.4
// InsertRow/UpdateCell (which rehash the whole row), and of the query's
// super key. Also times Xash MakeSuperKey over a 5-value row (the DWTC
// average row width).
//
// Self-contained (no Google Benchmark), like micro_superkey: CI's
// bench-smoke runs it off bench/smoke_list.txt with --json=, and it gates
// on XASH bit-identity — a checksum of the Xash signatures of its fixed
// value set at 128 and 512 bits must equal the constant below, recorded
// before the O(alpha) AddValue rewrite. A faster hash that moves a single
// bit fails the run (exit 1): every saved index would silently go stale.
//
// --scale scales the cap on timed passes; --json feeds the BENCH_*.json
// trajectory with ns_per_value per family x width and ns_per_row for
// MakeSuperKey.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util/bench_json.h"
#include "bench_util/report.h"
#include "hash/hash_registry.h"
#include "util/bitvector.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace mate;  // NOLINT: bench brevity

namespace {

constexpr size_t kNumValues = 4096;
constexpr std::ptrdiff_t kRowWidth = 5;
constexpr int kSweeps = 5;  // best-of to damp jitter
constexpr size_t kBasePasses = 20;  // max passes per sweep at --scale=1
constexpr double kSweepSeconds = 0.02;

// Checksum of the Xash signatures of the timed values plus the long ones
// (longer than the 481-bit character region of a 512-bit key) at 128 and
// 512 bits, default options (English frequencies, alpha 6), as produced by
// the bit-serial scratch-and-rotate AddValue this bench was introduced to
// replace.
constexpr uint64_t kXashChecksum = 0xb3730c4f66ca6580;

// Cell-like values from a SplitMix64 stream (identical on every standard
// library, unlike std::uniform_int_distribution): letters, digits and
// separators, with one byte in 64 >= 0x80. `count` values of length
// [min_len, max_len].
std::vector<std::string> Values(uint64_t seed, size_t count, size_t min_len,
                                size_t max_len) {
  static constexpr char kAlphabet[] =
      "etaoinshrdlucmfwypvbgkjqxz0123456789 -./";
  constexpr size_t kAlphabetLen = sizeof(kAlphabet) - 1;
  uint64_t state = seed;
  const auto next = [&state] { return state = SplitMix64(state); };
  std::vector<std::string> values;
  values.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t len = min_len + next() % (max_len - min_len + 1);
    std::string v;
    v.reserve(len);
    for (size_t c = 0; c < len; ++c) {
      const uint64_t r = next();
      v.push_back((r & 63) == 0 ? static_cast<char>(0x80 | (r >> 8 & 0x7F))
                                : kAlphabet[(r >> 8) % kAlphabetLen]);
    }
    values.push_back(std::move(v));
  }
  return values;
}

uint64_t XashChecksum(const std::vector<std::string>& values) {
  uint64_t sum = 0;
  for (size_t bits : {size_t{128}, size_t{512}}) {
    auto hash = MakeRowHash(HashFamily::kXash, bits, nullptr);
    for (const std::string& v : values) {
      const BitVector sig = hash->HashValue(v);
      for (size_t w = 0; w < sig.num_words(); ++w) {
        sum = SplitMix64(sum ^ sig.word(w));
      }
    }
  }
  return sum;
}

// Keeps the timed loops' results observable.
volatile uint64_t g_sink = 0;

// Best-of-kSweeps nanoseconds per call. `pass(n)` runs n passes of
// `calls_per_pass` calls each; a sweep runs as many passes as fit in
// kSweepSeconds (at least one, at most `max_passes`), so the slow digest
// families stay cheap while the fast ones get enough repetitions.
template <typename Pass>
double BestNsPerCall(size_t calls_per_pass, size_t max_passes, Pass&& pass) {
  Stopwatch calibrate;
  pass(1);
  const double pass_s = std::max(calibrate.ElapsedSeconds(), 1e-9);
  const size_t passes = std::clamp<size_t>(
      static_cast<size_t>(kSweepSeconds / pass_s), 1, max_passes);
  double best = 0;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    Stopwatch timer;
    pass(passes);
    const double ns = timer.ElapsedSeconds() * 1e9 /
                      static_cast<double>(passes * calls_per_pass);
    best = sweep == 0 ? ns : std::min(best, ns);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs defaults;
  defaults.scale = 1.0;
  BenchArgs args = ParseBenchArgs(argc, argv, "hash_throughput", defaults);
  BenchJsonWriter json("hash_throughput", args.threads);

  // Timed: short cell-like values, as in web and open-data tables.
  const std::vector<std::string> values = Values(42, kNumValues, 1, 24);
  std::vector<std::string> checked = values;
  for (std::string& v : Values(43, 64, 482, 1200)) {
    checked.push_back(std::move(v));
  }
  const size_t passes =
      std::max<size_t>(1, static_cast<size_t>(kBasePasses * args.scale));

  const uint64_t checksum = XashChecksum(checked);
  char hex[19];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(checksum));
  std::cout << "hash_throughput: " << values.size() << " values, up to "
            << passes << " passes per sweep, Xash checksum " << hex
            << "\n\n";

  ReportTable report({"family", "bits", "ns/value"});
  for (HashFamily family : AllHashFamilies()) {
    for (size_t bits : {size_t{128}, size_t{512}}) {
      auto hash = MakeRowHash(family, bits, nullptr);
      if (hash == nullptr) continue;
      BitVector sig(bits);
      const double ns = BestNsPerCall(values.size(), passes, [&](size_t n) {
        for (size_t p = 0; p < n; ++p) {
          for (const std::string& v : values) {
            sig.Clear();
            hash->AddValue(v, &sig);
            g_sink = g_sink + sig.word(0);
          }
        }
      });
      const std::string name(HashFamilyName(family));
      report.AddRow({name, std::to_string(bits), FormatDouble(ns, 1)});
      json.Add("family=" + name + ",bits=" + std::to_string(bits),
               "ns_per_value", ns, "ns");
    }
  }
  report.Print(std::cout);
  std::cout << "\n";

  // Xash super key of a 5-value row, as the §5.4 row rehash computes it.
  std::vector<std::vector<std::string>> rows;
  for (auto it = values.begin(); values.end() - it >= kRowWidth;
       it += kRowWidth) {
    rows.emplace_back(it, it + kRowWidth);
  }
  ReportTable row_report({"family", "bits", "ns/row (5 values)"});
  for (size_t bits : {size_t{128}, size_t{512}}) {
    auto hash = MakeRowHash(HashFamily::kXash, bits, nullptr);
    const double ns = BestNsPerCall(rows.size(), passes, [&](size_t n) {
      for (size_t p = 0; p < n; ++p) {
        for (const auto& row : rows) {
          g_sink = g_sink + hash->MakeSuperKey(row).word(0);
        }
      }
    });
    row_report.AddRow({"Xash", std::to_string(bits), FormatDouble(ns, 1)});
    json.Add("family=Xash,bits=" + std::to_string(bits) + ",row=5",
             "ns_per_row", ns, "ns");
  }
  row_report.Print(std::cout);
  std::cout << "\n";

  if (!json.WriteTo(args.json_path)) return 1;

  if (checksum != kXashChecksum) {
    std::cerr << "hash_throughput: FAIL Xash checksum " << hex
              << " differs from the recorded bit-identity constant\n";
    return 1;
  }
  std::cout << "hash_throughput: OK\n";
  return 0;
}
