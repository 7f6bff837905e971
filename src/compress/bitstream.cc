#include "compress/bitstream.h"

#include <bit>
#include <cstring>

namespace dstore {

void BitWriter::WriteBits(uint32_t bits, int count) {
  bit_buffer_ |= static_cast<uint64_t>(bits & ((1ull << count) - 1))
                 << bit_count_;
  bit_count_ += count;
  while (bit_count_ >= 8) {
    out_->push_back(static_cast<uint8_t>(bit_buffer_));
    bit_buffer_ >>= 8;
    bit_count_ -= 8;
  }
}

void BitWriter::WriteHuffmanCode(uint32_t code, int length) {
  // Reverse the code so its MSB goes out first (RFC 1951 §3.1.1).
  WriteBits(ReverseBits(code, length), length);
}

void BitWriter::AlignToByte() {
  if (bit_count_ > 0) {
    out_->push_back(static_cast<uint8_t>(bit_buffer_));
    bit_buffer_ = 0;
    bit_count_ = 0;
  }
}

void BitWriter::WriteBytes(const uint8_t* data, size_t len) {
  out_->insert(out_->end(), data, data + len);
}

void BitReader::Refill() {
  if (size_ - pos_ >= 8) {
    // Load a whole word and keep the bytes that fit; the rest land above
    // bit_count_ at their own offsets and are loaded again next time.
    uint64_t word;
    std::memcpy(&word, data_ + pos_, 8);
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    bit_buffer_ |= word << bit_count_;
    pos_ += static_cast<size_t>((63 - bit_count_) >> 3);
    bit_count_ |= 56;
    return;
  }
  while (bit_count_ <= 56 && pos_ < size_) {
    bit_buffer_ |= static_cast<uint64_t>(data_[pos_++]) << bit_count_;
    bit_count_ += 8;
  }
}

StatusOr<uint32_t> BitReader::ReadBits(int count) {
  if (bit_count_ < count) {
    Refill();
    if (bit_count_ < count) {
      return Status::Corruption("bitstream ended unexpectedly");
    }
  }
  const uint32_t value =
      static_cast<uint32_t>(bit_buffer_ & ((1ull << count) - 1));
  SkipBits(count);
  return value;
}

void BitReader::AlignToByte() { SkipBits(bit_count_ & 7); }

Status BitReader::ReadBytes(uint8_t* out, size_t len) {
  if ((bit_count_ & 7) != 0) {
    return Status::Internal("ReadBytes requires byte alignment");
  }
  const size_t buffered = static_cast<size_t>(bit_count_ / 8);
  if (len > buffered + (size_ - pos_)) {
    return Status::Corruption("bitstream ended unexpectedly");
  }
  for (; len > 0 && bit_count_ > 0; --len) {
    *out++ = static_cast<uint8_t>(bit_buffer_);
    SkipBits(8);
  }
  if (len > 0) {
    // The buffer is drained; its look-ahead bits would now be stale.
    bit_buffer_ = 0;
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
  }
  return Status::OK();
}

}  // namespace dstore
