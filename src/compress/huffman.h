#ifndef DSTORE_COMPRESS_HUFFMAN_H_
#define DSTORE_COMPRESS_HUFFMAN_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "compress/bitstream.h"

namespace dstore {

// Computes length-limited Huffman code lengths for the given symbol
// frequencies using the package-merge algorithm (optimal for a given limit).
// Symbols with zero frequency get length 0. If only one symbol is used it is
// assigned length 1, as DEFLATE decoders require.
std::vector<int> BuildHuffmanCodeLengths(const std::vector<uint64_t>& freqs,
                                         int max_bits);

// Assigns canonical codes from code lengths (RFC 1951 §3.2.2). codes[i] is
// meaningful only when lengths[i] > 0.
std::vector<uint32_t> BuildCanonicalCodes(const std::vector<int>& lengths);

// Decodes canonical Huffman codes from a BitReader. Built from the same
// code-length array the encoder used. One lookup on the next kTableBits
// stream bits resolves every code up to that length; longer codes finish
// on the canonical (first code, count) ranges.
class HuffmanDecoder {
 public:
  // DecodeSymbol's error results.
  static constexpr int kInvalidCode = -1;
  static constexpr int kTruncated = -2;

  // Fails if the lengths describe an invalid (over-subscribed) code.
  static StatusOr<HuffmanDecoder> Build(const std::vector<int>& lengths);

  // Reads one symbol from `reader`.
  StatusOr<int> Decode(BitReader* reader) const;

  // Reads one symbol, or returns kInvalidCode (no code matches the stream,
  // which incomplete codes allow) or kTruncated (input ran out mid-code).
  // The inflate loop uses this form to skip a StatusOr per symbol.
  int DecodeSymbol(BitReader* reader) const {
    int available = 0;
    const uint32_t bits = reader->PeekBits(kMaxBits, &available);
    const uint32_t entry = table_[bits & ((1u << kTableBits) - 1)];
    const int length = static_cast<int>(entry & kLengthMask);
    if (length == 0) return kInvalidCode;
    if (length > kTableBits) return DecodeLong(reader, bits, available);
    if (length > available) return kTruncated;
    reader->SkipBits(length);
    return static_cast<int>(entry >> kSymbolShift);
  }

 private:
  HuffmanDecoder() = default;

  // Finishes a code longer than kTableBits; `bits` are the next kMaxBits
  // stream bits, of which `available` are real input.
  int DecodeLong(BitReader* reader, uint32_t bits, int available) const;

  static constexpr int kMaxBits = 15;
  static constexpr int kTableBits = 10;
  // table_ entry: (symbol << kSymbolShift) | code length. Length 0 means no
  // code starts with these bits; kLongCode marks the prefix of a code
  // longer than kTableBits.
  static constexpr int kSymbolShift = 4;
  static constexpr uint32_t kLengthMask = (1u << kSymbolShift) - 1;
  static constexpr uint32_t kLongCode = kLengthMask;
  uint32_t table_[1u << kTableBits] = {};
  // first_code_[l]: canonical code value of the first code of length l.
  // first_index_[l]: index into sorted_symbols_ of that code.
  // count_[l]: number of codes of length l.
  uint32_t first_code_[kMaxBits + 1] = {};
  int first_index_[kMaxBits + 1] = {};
  int count_[kMaxBits + 1] = {};
  std::vector<int> sorted_symbols_;
  int max_length_ = 0;
};

}  // namespace dstore

#endif  // DSTORE_COMPRESS_HUFFMAN_H_
