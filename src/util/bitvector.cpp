#include "util/bitvector.h"

#include "util/coding.h"

namespace mate {

std::string BitVector::ToBinaryString() const {
  std::string out;
  out.reserve(num_bits_);
  for (size_t i = 0; i < num_bits_; ++i) out.push_back(TestBit(i) ? '1' : '0');
  return out;
}

std::string BitVector::ToHexString() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(num_words_ * 16);
  for (size_t w = 0; w < num_words_; ++w) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(kHex[(words_[w] >> shift) & 0xF]);
    }
  }
  return out;
}

Result<BitVector> BitVector::FromBinaryString(std::string_view bits) {
  if (bits.size() > kMaxBits) {
    return Status::InvalidArgument("bit string longer than kMaxBits");
  }
  BitVector v(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] == '1') {
      v.SetBit(i);
    } else if (bits[i] != '0') {
      return Status::InvalidArgument("bit string may contain only 0 and 1");
    }
  }
  return v;
}

void BitVector::AppendToString(std::string* out) const {
  PutVarint64(out, num_bits_);
  for (size_t w = 0; w < num_words_; ++w) PutFixed64(out, words_[w]);
}

Result<BitVector> BitVector::ParseFrom(std::string_view* input) {
  uint64_t num_bits = 0;
  if (!GetVarint64(input, &num_bits)) {
    return Status::Corruption("BitVector: bad width varint");
  }
  if (num_bits > kMaxBits) {
    return Status::Corruption("BitVector: width exceeds kMaxBits");
  }
  BitVector v(static_cast<size_t>(num_bits));
  for (size_t w = 0; w < v.num_words(); ++w) {
    uint64_t word = 0;
    if (!GetFixed64(input, &word)) {
      return Status::Corruption("BitVector: truncated words");
    }
    v.words_[w] = word;
  }
  v.MaskTail();
  return v;
}

}  // namespace mate
