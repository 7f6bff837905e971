#include "compress/huffman.h"

#include <algorithm>
#include <cstdint>

namespace dstore {

namespace {

struct Leaf {
  uint64_t weight;
  int symbol;
};

}  // namespace

std::vector<int> BuildHuffmanCodeLengths(const std::vector<uint64_t>& freqs,
                                         int max_bits) {
  const size_t n = freqs.size();
  std::vector<int> lengths(n, 0);

  std::vector<Leaf> leaves;
  leaves.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (freqs[i] > 0) leaves.push_back({freqs[i], static_cast<int>(i)});
  }
  if (leaves.empty()) return lengths;
  if (leaves.size() == 1) {
    lengths[static_cast<size_t>(leaves[0].symbol)] = 1;
    return lengths;
  }
  // Ties keep std::sort's order: which of two equal-weight leaves ends up
  // deeper depends on it, and with it every compressed byte.
  std::sort(leaves.begin(), leaves.end(),
            [](const Leaf& a, const Leaf& b) { return a.weight < b.weight; });
  const size_t m = leaves.size();

  // Package-merge without per-package symbol lists. Each of the
  // max_bits - 1 rounds pairs up the current list into packages and merges
  // them with the leaves (a leaf goes first only when strictly lighter).
  // A round records only which merged items are packages: the first k items
  // of a list hold the lightest c leaves plus packages built from the first
  // 2(k - c) items of the list before, so the final selection of
  // 2(m - 1) items unwinds level by level into per-leaf depth counts.
  const int rounds = std::max(max_bits - 1, 0);
  const size_t width = 2 * m;
  std::vector<uint64_t> current(width), next(width);
  std::vector<uint8_t> is_package(static_cast<size_t>(rounds) * width);
  for (size_t i = 0; i < m; ++i) current[i] = leaves[i].weight;
  size_t current_size = m;
  for (int round = 0; round < rounds; ++round) {
    uint8_t* flags = is_package.data() + static_cast<size_t>(round) * width;
    const size_t packages = current_size / 2;
    size_t p = 0, l = 0, out = 0;
    while (p < packages && l < m) {
      const uint64_t package = current[2 * p] + current[2 * p + 1];
      if (leaves[l].weight < package) {
        next[out] = leaves[l++].weight;
        flags[out++] = 0;
      } else {
        next[out] = package;
        flags[out++] = 1;
        ++p;
      }
    }
    for (; l < m; ++l, ++out) {
      next[out] = leaves[l].weight;
      flags[out] = 0;
    }
    for (; p < packages; ++p, ++out) {
      next[out] = current[2 * p] + current[2 * p + 1];
      flags[out] = 1;
    }
    current.swap(next);
    current_size = out;
  }

  size_t take = std::min(2 * (m - 1), current_size);
  for (int round = rounds - 1; round >= 0; --round) {
    const uint8_t* flags =
        is_package.data() + static_cast<size_t>(round) * width;
    size_t leaf_count = 0;
    for (size_t i = 0; i < take; ++i) leaf_count += flags[i] == 0;
    for (size_t i = 0; i < leaf_count; ++i) {
      ++lengths[static_cast<size_t>(leaves[i].symbol)];
    }
    take = 2 * (take - leaf_count);
  }
  for (size_t i = 0; i < take; ++i) {
    ++lengths[static_cast<size_t>(leaves[i].symbol)];
  }
  return lengths;
}

std::vector<uint32_t> BuildCanonicalCodes(const std::vector<int>& lengths) {
  int max_len = 0;
  for (int l : lengths) max_len = std::max(max_len, l);

  std::vector<int> length_count(max_len + 1, 0);
  for (int l : lengths) {
    if (l > 0) ++length_count[l];
  }

  std::vector<uint32_t> next_code(max_len + 2, 0);
  uint32_t code = 0;
  for (int bits = 1; bits <= max_len; ++bits) {
    code = (code + static_cast<uint32_t>(length_count[bits - 1])) << 1;
    next_code[bits] = code;
  }

  std::vector<uint32_t> codes(lengths.size(), 0);
  for (size_t i = 0; i < lengths.size(); ++i) {
    if (lengths[i] > 0) codes[i] = next_code[lengths[i]]++;
  }
  return codes;
}

StatusOr<HuffmanDecoder> HuffmanDecoder::Build(const std::vector<int>& lengths) {
  HuffmanDecoder decoder;
  int total = 0;
  for (size_t i = 0; i < lengths.size(); ++i) {
    const int l = lengths[i];
    if (l < 0 || l > kMaxBits) {
      return Status::Corruption("Huffman code length out of range");
    }
    if (l > 0) {
      ++decoder.count_[l];
      ++total;
      decoder.max_length_ = std::max(decoder.max_length_, l);
    }
  }
  if (total == 0) {
    return Status::Corruption("Huffman code has no symbols");
  }

  // Kraft inequality check: reject over-subscribed codes. (Incomplete codes
  // appear in legal DEFLATE streams for the distance alphabet, so undershoot
  // is allowed.)
  uint64_t kraft = 0;
  for (int l = 1; l <= kMaxBits; ++l) {
    kraft += static_cast<uint64_t>(decoder.count_[l]) << (kMaxBits - l);
  }
  if (kraft > (1ull << kMaxBits)) {
    return Status::Corruption("Huffman code is over-subscribed");
  }

  uint32_t code = 0;
  int index = 0;
  uint32_t next_code[kMaxBits + 1] = {};
  for (int l = 1; l <= kMaxBits; ++l) {
    code = (code + static_cast<uint32_t>(decoder.count_[l - 1])) << 1;
    decoder.first_code_[l] = code;
    decoder.first_index_[l] = index;
    next_code[l] = code;
    index += decoder.count_[l];
  }

  // sorted_symbols_: symbols ordered by (length, symbol) — canonical order.
  // The lookup table holds every code in stream bit order: a code of length
  // l <= kTableBits fills each slot whose low l bits are its reversal.
  decoder.sorted_symbols_.resize(static_cast<size_t>(total));
  int fill[kMaxBits + 1];
  std::copy(decoder.first_index_, decoder.first_index_ + kMaxBits + 1, fill);
  for (size_t i = 0; i < lengths.size(); ++i) {
    const int l = lengths[i];
    if (l == 0) continue;
    decoder.sorted_symbols_[static_cast<size_t>(fill[l]++)] =
        static_cast<int>(i);
    const uint32_t symbol_code = next_code[l]++;
    if (l <= kTableBits) {
      const uint32_t entry =
          (static_cast<uint32_t>(i) << kSymbolShift) | static_cast<uint32_t>(l);
      for (uint32_t slot = ReverseBits(symbol_code, l);
           slot < (1u << kTableBits); slot += 1u << l) {
        decoder.table_[slot] = entry;
      }
    } else {
      decoder.table_[ReverseBits(symbol_code >> (l - kTableBits),
                                 kTableBits)] = kLongCode;
    }
  }
  return decoder;
}

int HuffmanDecoder::DecodeLong(BitReader* reader, uint32_t bits,
                               int available) const {
  uint32_t code = 0;
  for (int length = 1; length <= max_length_; ++length) {
    code = (code << 1) | ((bits >> (length - 1)) & 1);
    if (length <= kTableBits) continue;
    if (length > available) return kTruncated;
    const uint32_t offset = code - first_code_[length];
    if (offset < static_cast<uint32_t>(count_[length])) {
      reader->SkipBits(length);
      return sorted_symbols_[static_cast<size_t>(first_index_[length]) +
                             offset];
    }
  }
  return kInvalidCode;
}

StatusOr<int> HuffmanDecoder::Decode(BitReader* reader) const {
  const int symbol = DecodeSymbol(reader);
  if (symbol == kTruncated) {
    return Status::Corruption("bitstream ended unexpectedly");
  }
  if (symbol == kInvalidCode) {
    return Status::Corruption("invalid Huffman code in stream");
  }
  return symbol;
}

}  // namespace dstore
