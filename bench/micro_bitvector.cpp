// E10 — micro: BitVector operation throughput (the row-filter inner loop).
// Subset checks against non-covering keys should exit early thanks to the
// length segment living in word 0 — compare Covering vs NonCovering.

#include <benchmark/benchmark.h>

#include "util/bitvector.h"
#include "util/rng.h"

namespace mate {
namespace {

BitVector RandomKey(Rng* rng, size_t bits, int ones) {
  BitVector v(bits);
  for (int i = 0; i < ones; ++i) v.SetBit(rng->Uniform(bits));
  return v;
}

void BM_OrWith(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  Rng rng(1);
  BitVector a = RandomKey(&rng, bits, 12);
  BitVector b = RandomKey(&rng, bits, 12);
  for (auto _ : state) {
    a.OrWith(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_OrWith)->Arg(128)->Arg(256)->Arg(512);

void BM_SubsetCovering(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  Rng rng(2);
  BitVector super = RandomKey(&rng, bits, 40);
  BitVector query = super;  // full cover: worst case, all words scanned
  for (auto _ : state) {
    benchmark::DoNotOptimize(query.IsSubsetOf(super));
  }
}
BENCHMARK(BM_SubsetCovering)->Arg(128)->Arg(256)->Arg(512);

void BM_SubsetNonCoveringFirstWord(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  Rng rng(3);
  BitVector super = RandomKey(&rng, bits, 12);
  BitVector query(bits);
  query.SetBit(1);  // XASH length bit region: mismatch in word 0
  super.ClearBit(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(query.IsSubsetOf(super));
  }
}
BENCHMARK(BM_SubsetNonCoveringFirstWord)->Arg(128)->Arg(256)->Arg(512);

void BM_CountOnes(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  Rng rng(5);
  BitVector v = RandomKey(&rng, bits, 30);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.CountOnes());
  }
}
BENCHMARK(BM_CountOnes)->Arg(128)->Arg(512);

}  // namespace
}  // namespace mate
