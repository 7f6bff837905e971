#ifndef DSTORE_COMPRESS_DEFLATE_H_
#define DSTORE_COMPRESS_DEFLATE_H_

#include "common/bytes.h"
#include "common/status.h"

namespace dstore {

// Compression effort for Deflate. Higher levels search hash chains more
// deeply and use lazy matching; kStored bypasses LZ77/Huffman entirely.
enum class DeflateLevel {
  kStored = 0,   // stored blocks only (no compression)
  kFast = 1,     // short chain search, greedy parsing
  kDefault = 6,  // deeper search, lazy matching
  kBest = 9,     // exhaustive-ish chain search
};

// Compresses `input` into a raw DEFLATE stream (RFC 1951). The encoder
// picks per-block between stored, fixed-Huffman, and dynamic-Huffman
// encodings, whichever is smallest.
Bytes DeflateCompress(const Bytes& input,
                      DeflateLevel level = DeflateLevel::kDefault);

// Decompresses a raw DEFLATE stream. `max_output` bounds the decompressed
// size to defend against decompression bombs (0 means unlimited).
StatusOr<Bytes> DeflateDecompress(const Bytes& input, size_t max_output = 0);

// The same over `size` bytes at `data`. `size_hint` (e.g. gzip's ISIZE)
// pre-sizes the output; being untrusted, it is capped by `max_output` and
// by the most `size` bytes can inflate to.
StatusOr<Bytes> DeflateDecompress(const uint8_t* data, size_t size,
                                  size_t max_output = 0,
                                  size_t size_hint = 0);

}  // namespace dstore

#endif  // DSTORE_COMPRESS_DEFLATE_H_
