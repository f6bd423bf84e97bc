#include "hash/xash.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>

#include "util/math_util.h"

namespace mate {

Xash::Xash(const XashOptions& options)
    : RowHashFunction(options.hash_bits),
      options_(options),
      frequencies_(options.frequencies != nullptr
                       ? options.frequencies
                       : &CharFrequencyTable::English()) {
  assert(options.hash_bits >= 64 && options.hash_bits <= BitVector::kMaxBits);
  beta_ = XashBeta(options.hash_bits, kAlphabetSize);
  length_bits_ = options.hash_bits - kAlphabetSize * beta_;
  assert(length_bits_ >= 1);
  alpha_ = options.alpha > 0
               ? options.alpha
               : std::max(options.min_alpha,
                          OptimalOnesCount(options.hash_bits,
                                           options.corpus_unique_values));
}

std::unique_ptr<Xash> Xash::FromCorpusStats(size_t hash_bits,
                                            const CorpusStats& stats) {
  XashOptions opts;
  opts.hash_bits = hash_bits;
  opts.corpus_unique_values =
      stats.num_unique_values > 0 ? stats.num_unique_values : 1;
  auto owned = std::make_shared<CharFrequencyTable>(
      CharFrequencyTable::FromCounts(stats.char_counts));
  opts.frequencies = owned.get();
  auto xash = std::make_unique<Xash>(opts);
  xash->owned_frequencies_ = std::move(owned);
  return xash;
}

void Xash::AddValue(std::string_view v, BitVector* sig) const {
  assert(sig->num_bits() == hash_bits_);
  const size_t len = v.size();

  if (options_.use_length) {
    sig->SetBit(len % length_bits_);
  }
  if (!options_.use_chars || len == 0) return;

  // One pass over the value. Each distinct character claims one bit of
  // `present` at its selection key: its position in Rarer order, or its
  // order of first appearance in the use_rare_chars ablation. The lowest
  // alpha-1 set bits are then exactly the characters a sort by that key
  // would pick first. Occurrence count and 1-based position sum give the
  // average location lambda (§5.3.3).
  static_assert(kAlphabetSize <= 64, "selection keys must fit one word");
  uint64_t present = 0;
  std::array<uint8_t, kAlphabetSize> id_at{};
  std::array<uint32_t, kAlphabetSize> count{};
  std::array<uint64_t, kAlphabetSize> position_sum{};
  const auto note = [&](int key, int id, size_t i) {
    present |= uint64_t{1} << key;
    id_at[key] = static_cast<uint8_t>(id);
    ++count[key];
    position_sum[key] += i + 1;
  };
  if (options_.use_rare_chars) {
    const CharFrequencyTable& freq = *frequencies_;
    for (size_t i = 0; i < len; ++i) {
      const int id = NormalizeChar(v[i]);
      note(freq.rarity(id), id, i);
    }
  } else {
    std::array<int8_t, kAlphabetSize> first_seen;
    first_seen.fill(-1);
    int distinct = 0;
    for (size_t i = 0; i < len; ++i) {
      const int id = NormalizeChar(v[i]);
      if (first_seen[id] < 0) first_seen[id] = static_cast<int8_t>(distinct++);
      note(first_seen[id], id, i);
    }
  }

  // §5.3.5 rotates this value's character bits left by len within the
  // region: relative position p lands at (p - len) mod region. Bits already
  // in `sig` (other values of the row) must not move, so each new bit is
  // written straight to its rotated slot.
  const size_t region = char_region_bits();
  const size_t shift = options_.use_rotation ? region - len % region : 0;
  const size_t region_begin = char_region_begin();
  int chars_to_encode = std::max(1, alpha_ - (options_.use_length ? 1 : 0));
  for (; chars_to_encode > 0 && present != 0; --chars_to_encode) {
    const int key = std::countr_zero(present);
    present &= present - 1;
    size_t offset = 0;
    if (options_.use_location && beta_ > 1) {
      // x = ceil(lambda * beta / len), clamped to [1, beta].
      double lambda = static_cast<double>(position_sum[key]) / count[key];
      size_t x = static_cast<size_t>(
          std::ceil(lambda * static_cast<double>(beta_) /
                    static_cast<double>(len)));
      if (x < 1) x = 1;
      if (x > beta_) x = beta_;
      offset = x - 1;
    }
    size_t p = static_cast<size_t>(id_at[key]) * beta_ + offset + shift;
    if (p >= region) p -= region;
    sig->SetBit(region_begin + p);
  }
}

}  // namespace mate
