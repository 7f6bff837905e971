#ifndef DSTORE_COMPRESS_BITSTREAM_H_
#define DSTORE_COMPRESS_BITSTREAM_H_

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"

namespace dstore {

// The low `length` bits of `code` in reverse order. DEFLATE sends Huffman
// codes most significant bit first into an LSB-first stream, so coders
// keep codes pre-reversed.
inline uint32_t ReverseBits(uint32_t code, int length) {
  if (length == 0) return 0;
  code = ((code >> 1) & 0x55555555u) | ((code & 0x55555555u) << 1);
  code = ((code >> 2) & 0x33333333u) | ((code & 0x33333333u) << 2);
  code = ((code >> 4) & 0x0f0f0f0fu) | ((code & 0x0f0f0f0fu) << 4);
  code = ((code >> 8) & 0x00ff00ffu) | ((code & 0x00ff00ffu) << 8);
  code = (code >> 16) | (code << 16);
  return code >> (32 - length);
}

// LSB-first bit writer, matching DEFLATE's bit packing: bits are written into
// each byte starting at the least significant position (RFC 1951 §3.1.1).
class BitWriter {
 public:
  explicit BitWriter(Bytes* out) : out_(out) {}

  // Writes the low `count` bits of `bits`, LSB first. count <= 32.
  void WriteBits(uint32_t bits, int count);

  // Writes a Huffman code, which RFC 1951 packs starting from the code's
  // most significant bit — i.e. the code must be emitted bit-reversed.
  void WriteHuffmanCode(uint32_t code, int length);

  // Pads the current byte with zero bits so the stream is byte-aligned.
  void AlignToByte();

  // Appends raw bytes; the stream must be byte-aligned.
  void WriteBytes(const uint8_t* data, size_t len);

  // Flushes any buffered partial byte. Call once at the end.
  void Finish() { AlignToByte(); }

 private:
  Bytes* out_;
  uint64_t bit_buffer_ = 0;
  int bit_count_ = 0;
};

// LSB-first bit reader over a byte buffer. Bits are buffered up to a 64-bit
// word at a time, and no load reads past the end of the input.
class BitReader {
 public:
  explicit BitReader(const Bytes& data) : BitReader(data.data(), data.size()) {}
  BitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  // Reads `count` bits (LSB first, count <= 32). Fails past end of input.
  StatusOr<uint32_t> ReadBits(int count);

  // Returns the next `count` bits (count <= 32) without consuming them.
  // Bits past the end of input are unspecified; `*available` receives how
  // many of the `count` are real input.
  uint32_t PeekBits(int count, int* available) {
    if (bit_count_ < count) Refill();
    *available = bit_count_ < count ? bit_count_ : count;
    return static_cast<uint32_t>(bit_buffer_ & ((1ull << count) - 1));
  }

  // Consumes `count` bits that PeekBits reported as available.
  void SkipBits(int count) {
    bit_buffer_ >>= count;
    bit_count_ -= count;
  }

  // Discards buffered bits so the next read starts at a byte boundary.
  void AlignToByte();

  // Copies `len` aligned bytes into `out`.
  Status ReadBytes(uint8_t* out, size_t len);

  // Byte position of the next unread byte (after AlignToByte).
  size_t BytePosition() const {
    return pos_ - static_cast<size_t>(bit_count_ / 8);
  }

  bool AtEnd() const { return pos_ >= size_ && bit_count_ == 0; }

 private:
  // Tops the buffer up to at least 56 bits, or to the end of input.
  void Refill();

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;  // next input byte not yet in the buffer
  // Bits above bit_count_ are zero or the input that follows pos_.
  uint64_t bit_buffer_ = 0;
  int bit_count_ = 0;
};

}  // namespace dstore

#endif  // DSTORE_COMPRESS_BITSTREAM_H_
