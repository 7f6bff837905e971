#include "compress/deflate.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "compress/bitstream.h"
#include "compress/huffman.h"

namespace dstore {

namespace {

constexpr int kMinMatch = 3;
constexpr int kMaxMatch = 258;
constexpr int kWindowSize = 32768;
constexpr int kEndOfBlock = 256;
constexpr int kNumLitLenSymbols = 286;
constexpr int kNumDistSymbols = 30;

// Length code table (RFC 1951 §3.2.5): codes 257..285.
constexpr int kLengthBase[29] = {3,  4,  5,  6,  7,  8,  9,  10, 11,  13,
                                 15, 17, 19, 23, 27, 31, 35, 43, 51,  59,
                                 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr int kLengthExtraBits[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                      1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                      4, 4, 4, 4, 5, 5, 5, 5, 0};

// Distance code table: codes 0..29.
constexpr int kDistBase[30] = {1,    2,    3,    4,    5,    7,     9,    13,
                               17,   25,   33,   49,   65,   97,    129,  193,
                               257,  385,  513,  769,  1025, 1537,  2049, 3073,
                               4097, 6145, 8193, 12289, 16385, 24577};
constexpr int kDistExtraBits[30] = {0, 0, 0,  0,  1,  1,  2,  2,  3,  3,
                                    4, 4, 5,  5,  6,  6,  7,  7,  8,  8,
                                    9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

// Order in which code-length code lengths appear in a dynamic header.
constexpr int kCodeLengthOrder[19] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                      11, 4,  12, 3, 13, 2, 14, 1, 15};

// Length -> length-code index and distance -> distance code, as tables.
// Distances above 256 share a code within each aligned run of 128, so
// they index the second half of dist_code by (dist - 1) >> 7.
struct SymbolCodes {
  uint8_t length_code[kMaxMatch + 1] = {};
  uint8_t dist_code[512] = {};
};

constexpr SymbolCodes MakeSymbolCodes() {
  SymbolCodes t;
  int code = 0;
  for (int length = kMinMatch; length <= kMaxMatch; ++length) {
    while (code < 28 && length >= kLengthBase[code + 1]) ++code;
    t.length_code[length] = static_cast<uint8_t>(code);
  }
  code = 0;
  for (int dist = 1; dist <= kWindowSize; ++dist) {
    while (code < 29 && dist >= kDistBase[code + 1]) ++code;
    if (dist <= 256) {
      t.dist_code[dist - 1] = static_cast<uint8_t>(code);
    } else {
      t.dist_code[256 + ((dist - 1) >> 7)] = static_cast<uint8_t>(code);
    }
  }
  return t;
}

constexpr SymbolCodes kSymbolCodes = MakeSymbolCodes();

int LengthToCode(int length) { return kSymbolCodes.length_code[length]; }

int DistToCode(int dist) {
  return dist <= 256 ? kSymbolCodes.dist_code[dist - 1]
                     : kSymbolCodes.dist_code[256 + ((dist - 1) >> 7)];
}

struct Token {
  uint16_t length;  // 0 means literal
  uint16_t dist;
  uint8_t literal;
};

struct Lz77Params {
  int max_chain;
  bool lazy;
};

Lz77Params ParamsForLevel(DeflateLevel level) {
  switch (level) {
    case DeflateLevel::kFast:
      return {8, false};
    case DeflateLevel::kBest:
      return {1024, true};
    case DeflateLevel::kDefault:
    default:
      return {128, true};
  }
}

constexpr int kHashBits = 15;
constexpr uint32_t kHashSize = 1u << kHashBits;

uint32_t Hash3(const uint8_t* p) {
  const uint32_t v = static_cast<uint32_t>(p[0]) |
                     (static_cast<uint32_t>(p[1]) << 8) |
                     (static_cast<uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

int MatchLength(const uint8_t* a, const uint8_t* b, int max_len) {
  int len = 0;
  // Eight bytes per step; the first differing byte is the lowest set byte
  // of the XOR in memory order.
  for (; len + 8 <= max_len; len += 8) {
    uint64_t x, y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (const uint64_t diff = x ^ y; diff != 0) {
      return len + (std::endian::native == std::endian::little
                        ? std::countr_zero(diff)
                        : std::countl_zero(diff)) /
                       8;
    }
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

// Hash-chain LZ77 parser with optional one-step lazy matching.
std::vector<Token> Lz77Parse(const Bytes& input, const Lz77Params& params) {
  std::vector<Token> tokens;
  const size_t n = input.size();
  tokens.reserve(n / 2 + 16);
  if (n == 0) return tokens;

  std::vector<int32_t> head(kHashSize, -1);
  std::vector<int32_t> prev(n, -1);

  auto find_match = [&](size_t pos, int* best_dist) -> int {
    if (pos + kMinMatch > n) return 0;
    const int max_len = static_cast<int>(std::min<size_t>(kMaxMatch, n - pos));
    int best_len = 0;
    int chain = params.max_chain;
    int32_t candidate = head[Hash3(input.data() + pos)];
    while (candidate >= 0 && chain-- > 0) {
      const int dist = static_cast<int>(pos) - candidate;
      if (dist > kWindowSize) break;
      const int len =
          MatchLength(input.data() + candidate, input.data() + pos, max_len);
      if (len > best_len) {
        best_len = len;
        *best_dist = dist;
        if (len >= max_len) break;
      }
      candidate = prev[candidate];
    }
    return best_len >= kMinMatch ? best_len : 0;
  };

  auto insert = [&](size_t pos) {
    if (pos + kMinMatch <= n) {
      const uint32_t h = Hash3(input.data() + pos);
      prev[pos] = head[h];
      head[h] = static_cast<int32_t>(pos);
    }
  };

  size_t pos = 0;
  while (pos < n) {
    int dist = 0;
    int len = find_match(pos, &dist);
    if (len > 0 && params.lazy && pos + 1 < n) {
      // Lazy evaluation: if the next position has a strictly longer match,
      // emit a literal here and take the longer match next iteration.
      insert(pos);
      int next_dist = 0;
      const int next_len = find_match(pos + 1, &next_dist);
      if (next_len > len) {
        tokens.push_back(Token{0, 0, input[pos]});
        ++pos;
        continue;
      }
      // Keep the current match; `pos` was already inserted.
      tokens.push_back(
          Token{static_cast<uint16_t>(len), static_cast<uint16_t>(dist), 0});
      for (size_t i = pos + 1; i < pos + static_cast<size_t>(len); ++i) {
        insert(i);
      }
      pos += static_cast<size_t>(len);
      continue;
    }
    if (len > 0) {
      tokens.push_back(
          Token{static_cast<uint16_t>(len), static_cast<uint16_t>(dist), 0});
      for (size_t i = pos; i < pos + static_cast<size_t>(len); ++i) insert(i);
      pos += static_cast<size_t>(len);
    } else {
      tokens.push_back(Token{0, 0, input[pos]});
      insert(pos);
      ++pos;
    }
  }
  return tokens;
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

// Code lengths plus the matching canonical codes, pre-reversed for the
// LSB-first BitWriter.
struct CodeTable {
  std::vector<int> lengths;
  std::vector<uint32_t> codes;
};

CodeTable MakeCodeTable(std::vector<int> lengths) {
  CodeTable table;
  table.codes = BuildCanonicalCodes(lengths);
  for (size_t i = 0; i < lengths.size(); ++i) {
    table.codes[i] = ReverseBits(table.codes[i], lengths[i]);
  }
  table.lengths = std::move(lengths);
  return table;
}

std::vector<int> FixedLitLenLengths() {
  std::vector<int> lengths(288);
  for (int i = 0; i <= 143; ++i) lengths[i] = 8;
  for (int i = 144; i <= 255; ++i) lengths[i] = 9;
  for (int i = 256; i <= 279; ++i) lengths[i] = 7;
  for (int i = 280; i <= 287; ++i) lengths[i] = 8;
  return lengths;
}

const CodeTable& FixedLitLenTable() {
  static const CodeTable table = MakeCodeTable(FixedLitLenLengths());
  return table;
}

const CodeTable& FixedDistTable() {
  static const CodeTable table = MakeCodeTable(std::vector<int>(30, 5));
  return table;
}

void PutCode(BitWriter* writer, const CodeTable& table, int symbol) {
  writer->WriteBits(table.codes[static_cast<size_t>(symbol)],
                    table.lengths[static_cast<size_t>(symbol)]);
}

void CountTokenFrequencies(const std::vector<Token>& tokens,
                           std::vector<uint64_t>* litlen_freq,
                           std::vector<uint64_t>* dist_freq) {
  litlen_freq->assign(kNumLitLenSymbols, 0);
  dist_freq->assign(kNumDistSymbols, 0);
  for (const Token& t : tokens) {
    if (t.length == 0) {
      ++(*litlen_freq)[t.literal];
    } else {
      ++(*litlen_freq)[257 + LengthToCode(t.length)];
      ++(*dist_freq)[DistToCode(t.dist)];
    }
  }
  ++(*litlen_freq)[kEndOfBlock];
}

void WriteTokens(BitWriter* writer, const std::vector<Token>& tokens,
                 const CodeTable& litlen, const CodeTable& dist) {
  for (const Token& t : tokens) {
    if (t.length == 0) {
      PutCode(writer, litlen, t.literal);
    } else {
      const int lcode = LengthToCode(t.length);
      PutCode(writer, litlen, 257 + lcode);
      if (kLengthExtraBits[lcode] > 0) {
        writer->WriteBits(
            static_cast<uint32_t>(t.length - kLengthBase[lcode]),
            kLengthExtraBits[lcode]);
      }
      const int dcode = DistToCode(t.dist);
      PutCode(writer, dist, dcode);
      if (kDistExtraBits[dcode] > 0) {
        writer->WriteBits(static_cast<uint32_t>(t.dist - kDistBase[dcode]),
                          kDistExtraBits[dcode]);
      }
    }
  }
  PutCode(writer, litlen, kEndOfBlock);
}

// Run-length encodes the combined litlen+dist code-length array using the
// code-length alphabet (symbols 0-15 literal, 16 repeat-prev, 17/18 zeros).
struct ClSymbol {
  int symbol;
  int extra_value;
  int extra_bits;
};

std::vector<ClSymbol> RunLengthEncodeCodeLengths(
    const std::vector<int>& lengths) {
  std::vector<ClSymbol> out;
  size_t i = 0;
  while (i < lengths.size()) {
    const int value = lengths[i];
    size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == value) ++run;

    if (value == 0) {
      size_t remaining = run;
      while (remaining >= 11) {
        const int reps = static_cast<int>(std::min<size_t>(remaining, 138));
        out.push_back({18, reps - 11, 7});
        remaining -= static_cast<size_t>(reps);
      }
      if (remaining >= 3) {
        out.push_back({17, static_cast<int>(remaining) - 3, 3});
        remaining = 0;
      }
      while (remaining-- > 0) out.push_back({0, 0, 0});
    } else {
      out.push_back({value, 0, 0});
      size_t remaining = run - 1;
      while (remaining >= 3) {
        const int reps = static_cast<int>(std::min<size_t>(remaining, 6));
        out.push_back({16, reps - 3, 2});
        remaining -= static_cast<size_t>(reps);
      }
      while (remaining-- > 0) out.push_back({value, 0, 0});
    }
    i += run;
  }
  return out;
}

// Serialized size in bits of a dynamic-Huffman block (header + body).
struct DynamicPlan {
  CodeTable litlen;
  CodeTable dist;
  std::vector<ClSymbol> cl_stream;
  CodeTable cl_table;
  int hlit;
  int hdist;
  int hclen;
  uint64_t header_bits;
};

DynamicPlan PlanDynamicBlock(const std::vector<uint64_t>& litlen_freq,
                             const std::vector<uint64_t>& dist_freq) {
  DynamicPlan plan;
  plan.litlen = MakeCodeTable(BuildHuffmanCodeLengths(litlen_freq, 15));
  plan.dist = MakeCodeTable(BuildHuffmanCodeLengths(dist_freq, 15));

  // HLIT/HDIST: number of coded lengths (at least 257 / 1).
  int hlit = kNumLitLenSymbols;
  while (hlit > 257 && plan.litlen.lengths[hlit - 1] == 0) --hlit;
  int hdist = kNumDistSymbols;
  while (hdist > 1 && plan.dist.lengths[hdist - 1] == 0) --hdist;
  plan.hlit = hlit;
  plan.hdist = hdist;

  std::vector<int> all_lengths;
  all_lengths.reserve(static_cast<size_t>(hlit + hdist));
  all_lengths.insert(all_lengths.end(), plan.litlen.lengths.begin(),
                     plan.litlen.lengths.begin() + hlit);
  all_lengths.insert(all_lengths.end(), plan.dist.lengths.begin(),
                     plan.dist.lengths.begin() + hdist);
  plan.cl_stream = RunLengthEncodeCodeLengths(all_lengths);

  std::vector<uint64_t> cl_freq(19, 0);
  for (const ClSymbol& s : plan.cl_stream) ++cl_freq[s.symbol];
  plan.cl_table = MakeCodeTable(BuildHuffmanCodeLengths(cl_freq, 7));

  int hclen = 19;
  while (hclen > 4 &&
         plan.cl_table.lengths[kCodeLengthOrder[hclen - 1]] == 0) {
    --hclen;
  }
  plan.hclen = hclen;

  uint64_t bits = 5 + 5 + 4 + 3ull * static_cast<uint64_t>(hclen);
  for (const ClSymbol& s : plan.cl_stream) {
    bits += static_cast<uint64_t>(plan.cl_table.lengths[s.symbol]) +
            static_cast<uint64_t>(s.extra_bits);
  }
  plan.header_bits = bits;
  return plan;
}

uint64_t BodyBits(const std::vector<uint64_t>& litlen_freq,
                  const std::vector<uint64_t>& dist_freq,
                  const std::vector<int>& litlen_lengths,
                  const std::vector<int>& dist_lengths) {
  uint64_t bits = 0;
  for (size_t i = 0; i < litlen_freq.size() && i < litlen_lengths.size(); ++i) {
    bits += litlen_freq[i] * static_cast<uint64_t>(litlen_lengths[i]);
  }
  for (size_t i = 0; i < dist_freq.size() && i < dist_lengths.size(); ++i) {
    bits += dist_freq[i] * static_cast<uint64_t>(dist_lengths[i]);
  }
  return bits;
}

uint64_t ExtraBits(const std::vector<Token>& tokens) {
  uint64_t bits = 0;
  for (const Token& t : tokens) {
    if (t.length > 0) {
      bits += static_cast<uint64_t>(kLengthExtraBits[LengthToCode(t.length)]);
      bits += static_cast<uint64_t>(kDistExtraBits[DistToCode(t.dist)]);
    }
  }
  return bits;
}

void WriteStoredBlocks(BitWriter* writer, const Bytes& input) {
  size_t off = 0;
  do {
    const size_t chunk = std::min<size_t>(input.size() - off, 65535);
    const bool final_block = off + chunk == input.size();
    writer->WriteBits(final_block ? 1 : 0, 1);
    writer->WriteBits(0, 2);  // BTYPE=00 stored
    writer->AlignToByte();
    const uint16_t len = static_cast<uint16_t>(chunk);
    const uint16_t nlen = static_cast<uint16_t>(~len);
    uint8_t header[4] = {static_cast<uint8_t>(len),
                         static_cast<uint8_t>(len >> 8),
                         static_cast<uint8_t>(nlen),
                         static_cast<uint8_t>(nlen >> 8)};
    writer->WriteBytes(header, 4);
    writer->WriteBytes(input.data() + off, chunk);
    off += chunk;
  } while (off < input.size());
}

}  // namespace

Bytes DeflateCompress(const Bytes& input, DeflateLevel level) {
  Bytes out;
  BitWriter writer(&out);

  if (level == DeflateLevel::kStored || input.empty()) {
    if (input.empty()) {
      // An empty final stored block.
      writer.WriteBits(1, 1);
      writer.WriteBits(0, 2);
      writer.AlignToByte();
      const uint8_t header[4] = {0, 0, 0xff, 0xff};
      writer.WriteBytes(header, 4);
      return out;
    }
    WriteStoredBlocks(&writer, input);
    return out;
  }

  const std::vector<Token> tokens = Lz77Parse(input, ParamsForLevel(level));

  std::vector<uint64_t> litlen_freq, dist_freq;
  CountTokenFrequencies(tokens, &litlen_freq, &dist_freq);

  const CodeTable& fixed_litlen = FixedLitLenTable();
  const CodeTable& fixed_dist = FixedDistTable();
  const uint64_t token_extra = ExtraBits(tokens);

  DynamicPlan plan = PlanDynamicBlock(litlen_freq, dist_freq);
  const uint64_t dynamic_bits =
      3 + plan.header_bits +
      BodyBits(litlen_freq, dist_freq, plan.litlen.lengths,
               plan.dist.lengths) +
      token_extra;
  const uint64_t fixed_bits =
      3 +
      BodyBits(litlen_freq, dist_freq, fixed_litlen.lengths,
               fixed_dist.lengths) +
      token_extra;
  const uint64_t stored_bits =
      (input.size() + 5 * (input.size() / 65535 + 1)) * 8 + 3;

  if (stored_bits < dynamic_bits && stored_bits < fixed_bits) {
    WriteStoredBlocks(&writer, input);
    return out;
  }

  writer.WriteBits(1, 1);  // BFINAL
  if (fixed_bits <= dynamic_bits) {
    writer.WriteBits(1, 2);  // BTYPE=01 fixed
    WriteTokens(&writer, tokens, fixed_litlen, fixed_dist);
  } else {
    writer.WriteBits(2, 2);  // BTYPE=10 dynamic
    writer.WriteBits(static_cast<uint32_t>(plan.hlit - 257), 5);
    writer.WriteBits(static_cast<uint32_t>(plan.hdist - 1), 5);
    writer.WriteBits(static_cast<uint32_t>(plan.hclen - 4), 4);
    for (int i = 0; i < plan.hclen; ++i) {
      writer.WriteBits(
          static_cast<uint32_t>(plan.cl_table.lengths[kCodeLengthOrder[i]]),
          3);
    }
    for (const ClSymbol& s : plan.cl_stream) {
      PutCode(&writer, plan.cl_table, s.symbol);
      if (s.extra_bits > 0) {
        writer.WriteBits(static_cast<uint32_t>(s.extra_value), s.extra_bits);
      }
    }
    WriteTokens(&writer, tokens, plan.litlen, plan.dist);
  }
  writer.Finish();
  return out;
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

namespace {

// Inflate output: a buffer written through a size cursor, grown by
// doubling, so literals and matches skip per-byte push_back.
class Output {
 public:
  Output(size_t initial, size_t max_output) : max_output_(max_output) {
    bytes_.resize(std::max<size_t>(initial, 256));
  }

  // Makes room for `n` more bytes, or fails if that passes max_output.
  Status Reserve(size_t n) {
    if (max_output_ != 0 && size_ + n > max_output_) {
      return Status::InvalidArgument("decompressed data exceeds max_output");
    }
    if (size_ + n > bytes_.size()) {
      size_t grown = std::max(size_ + n, 2 * bytes_.size());
      if (max_output_ != 0) grown = std::min(grown, max_output_);
      bytes_.resize(grown);
    }
    return Status::OK();
  }

  // Callers Reserve first.
  uint8_t* end() { return bytes_.data() + size_; }
  void Advance(size_t n) { size_ += n; }
  size_t size() const { return size_; }

  Bytes Finish() && {
    bytes_.resize(size_);
    return std::move(bytes_);
  }

 private:
  Bytes bytes_;
  size_t size_ = 0;
  size_t max_output_;
};

Status SymbolError(int result) {
  return result == HuffmanDecoder::kTruncated
             ? Status::Corruption("bitstream ended unexpectedly")
             : Status::Corruption("invalid Huffman code in stream");
}

Status InflateBlockBody(BitReader* reader, const HuffmanDecoder& litlen,
                        const HuffmanDecoder& dist, Output* out) {
  for (;;) {
    const int symbol = litlen.DecodeSymbol(reader);
    if (symbol < 0) return SymbolError(symbol);
    if (symbol < 256) {
      DSTORE_RETURN_IF_ERROR(out->Reserve(1));
      *out->end() = static_cast<uint8_t>(symbol);
      out->Advance(1);
      continue;
    }
    if (symbol == kEndOfBlock) return Status::OK();
    const int lcode = symbol - 257;
    if (lcode >= 29) return Status::Corruption("invalid length code");
    DSTORE_ASSIGN_OR_RETURN(uint32_t lextra,
                            reader->ReadBits(kLengthExtraBits[lcode]));
    const size_t length = static_cast<size_t>(kLengthBase[lcode]) + lextra;

    const int dcode = dist.DecodeSymbol(reader);
    if (dcode < 0) return SymbolError(dcode);
    if (dcode >= 30) return Status::Corruption("invalid distance code");
    DSTORE_ASSIGN_OR_RETURN(uint32_t dextra,
                            reader->ReadBits(kDistExtraBits[dcode]));
    const size_t distance = static_cast<size_t>(kDistBase[dcode]) + dextra;
    if (distance > out->size()) {
      return Status::Corruption("distance exceeds output size");
    }
    DSTORE_RETURN_IF_ERROR(out->Reserve(length));
    uint8_t* to = out->end();
    const uint8_t* from = to - distance;
    if (distance >= length) {
      std::memcpy(to, from, length);
    } else {
      // Overlapping match (dist < length): each byte may repeat one this
      // copy just wrote.
      for (size_t i = 0; i < length; ++i) to[i] = from[i];
    }
    out->Advance(length);
  }
}

StatusOr<std::pair<HuffmanDecoder, HuffmanDecoder>> ReadDynamicTables(
    BitReader* reader) {
  DSTORE_ASSIGN_OR_RETURN(uint32_t hlit_bits, reader->ReadBits(5));
  DSTORE_ASSIGN_OR_RETURN(uint32_t hdist_bits, reader->ReadBits(5));
  DSTORE_ASSIGN_OR_RETURN(uint32_t hclen_bits, reader->ReadBits(4));
  const int hlit = static_cast<int>(hlit_bits) + 257;
  const int hdist = static_cast<int>(hdist_bits) + 1;
  const int hclen = static_cast<int>(hclen_bits) + 4;
  if (hlit > 286 || hdist > 30) {
    return Status::Corruption("dynamic header alphabet too large");
  }

  std::vector<int> cl_lengths(19, 0);
  for (int i = 0; i < hclen; ++i) {
    DSTORE_ASSIGN_OR_RETURN(uint32_t l, reader->ReadBits(3));
    cl_lengths[kCodeLengthOrder[i]] = static_cast<int>(l);
  }
  DSTORE_ASSIGN_OR_RETURN(HuffmanDecoder cl_decoder,
                          HuffmanDecoder::Build(cl_lengths));

  std::vector<int> all_lengths;
  all_lengths.reserve(static_cast<size_t>(hlit + hdist));
  while (all_lengths.size() < static_cast<size_t>(hlit + hdist)) {
    DSTORE_ASSIGN_OR_RETURN(int symbol, cl_decoder.Decode(reader));
    if (symbol < 16) {
      all_lengths.push_back(symbol);
    } else if (symbol == 16) {
      if (all_lengths.empty()) {
        return Status::Corruption("repeat code with no previous length");
      }
      DSTORE_ASSIGN_OR_RETURN(uint32_t extra, reader->ReadBits(2));
      const int prev_len = all_lengths.back();
      for (uint32_t i = 0; i < 3 + extra; ++i) all_lengths.push_back(prev_len);
    } else if (symbol == 17) {
      DSTORE_ASSIGN_OR_RETURN(uint32_t extra, reader->ReadBits(3));
      for (uint32_t i = 0; i < 3 + extra; ++i) all_lengths.push_back(0);
    } else {  // 18
      DSTORE_ASSIGN_OR_RETURN(uint32_t extra, reader->ReadBits(7));
      for (uint32_t i = 0; i < 11 + extra; ++i) all_lengths.push_back(0);
    }
  }
  if (all_lengths.size() != static_cast<size_t>(hlit + hdist)) {
    return Status::Corruption("code length stream overruns header counts");
  }

  std::vector<int> litlen_lengths(all_lengths.begin(),
                                  all_lengths.begin() + hlit);
  std::vector<int> dist_lengths(all_lengths.begin() + hlit, all_lengths.end());
  DSTORE_ASSIGN_OR_RETURN(HuffmanDecoder litlen,
                          HuffmanDecoder::Build(litlen_lengths));
  // A block with no matches may encode a degenerate distance alphabet (a
  // single zero-length entry). Build() rejects all-zero alphabets, so fall
  // back to the fixed table — it will never be consulted.
  bool any_dist = false;
  for (int l : dist_lengths) any_dist = any_dist || l > 0;
  if (!any_dist) dist_lengths.assign(30, 5);
  DSTORE_ASSIGN_OR_RETURN(HuffmanDecoder dist,
                          HuffmanDecoder::Build(dist_lengths));
  return std::make_pair(std::move(litlen), std::move(dist));
}

const HuffmanDecoder& FixedLitLenDecoder() {
  static const HuffmanDecoder decoder =
      *HuffmanDecoder::Build(FixedLitLenLengths());
  return decoder;
}

const HuffmanDecoder& FixedDistDecoder() {
  static const HuffmanDecoder decoder =
      *HuffmanDecoder::Build(std::vector<int>(30, 5));
  return decoder;
}

}  // namespace

StatusOr<Bytes> DeflateDecompress(const Bytes& input, size_t max_output) {
  return DeflateDecompress(input.data(), input.size(), max_output);
}

StatusOr<Bytes> DeflateDecompress(const uint8_t* data, size_t size,
                                  size_t max_output, size_t size_hint) {
  // The hint comes from untrusted input: never pre-size past max_output or
  // past the most a stream of `size` bytes can inflate to (~1032:1).
  size_t initial = std::min(size_hint, size * 1032);
  if (max_output != 0) initial = std::min(initial, max_output);
  BitReader reader(data, size);
  Output out(initial, max_output);
  for (;;) {
    DSTORE_ASSIGN_OR_RETURN(uint32_t bfinal, reader.ReadBits(1));
    DSTORE_ASSIGN_OR_RETURN(uint32_t btype, reader.ReadBits(2));
    if (btype == 0) {
      reader.AlignToByte();
      uint8_t header[4];
      DSTORE_RETURN_IF_ERROR(reader.ReadBytes(header, 4));
      const uint16_t len =
          static_cast<uint16_t>(header[0] | (header[1] << 8));
      const uint16_t nlen =
          static_cast<uint16_t>(header[2] | (header[3] << 8));
      if (static_cast<uint16_t>(~len) != nlen) {
        return Status::Corruption("stored block LEN/NLEN mismatch");
      }
      DSTORE_RETURN_IF_ERROR(out.Reserve(len));
      DSTORE_RETURN_IF_ERROR(reader.ReadBytes(out.end(), len));
      out.Advance(len);
    } else if (btype == 1) {
      DSTORE_RETURN_IF_ERROR(InflateBlockBody(&reader, FixedLitLenDecoder(),
                                              FixedDistDecoder(), &out));
    } else if (btype == 2) {
      DSTORE_ASSIGN_OR_RETURN(auto tables, ReadDynamicTables(&reader));
      DSTORE_RETURN_IF_ERROR(
          InflateBlockBody(&reader, tables.first, tables.second, &out));
    } else {
      return Status::Corruption("reserved DEFLATE block type");
    }
    if (bfinal) break;
  }
  return std::move(out).Finish();
}

}  // namespace dstore
