#include "congest/message.hpp"

#include <cstring>
#include <utility>

#include "support/expect.hpp"
#include "support/hash.hpp"
#include "support/simd.hpp"

namespace congestlb::congest {

// The pack/unpack kernels address up to simd::kPackSlackBytes past the
// payload; PayloadBytes over-allocates every buffer by kSlackBytes.
static_assert(PayloadBytes::kSlackBytes >= simd::kPackSlackBytes);

void PayloadBytes::ensure_capacity(std::size_t n) {
  if (n <= capacity_) return;
  std::size_t cap = capacity_ * 2;
  if (cap < n) cap = n;
  // kSlackBytes extra, zero-filled: the word-window bit packers address (but
  // never visibly modify) up to 8 bytes past the payload.
  auto* buf = new std::byte[cap + kSlackBytes];
  std::memcpy(buf, data(), size_);
  std::memset(buf + size_, 0, cap + kSlackBytes - size_);
  delete[] heap_;
  heap_ = buf;
  capacity_ = cap;
}

void PayloadBytes::resize(std::size_t n) {
  ensure_capacity(n);
  if (n > size_) std::memset(data() + size_, 0, n - size_);
  size_ = n;
}

void PayloadBytes::push_back(std::byte b) {
  ensure_capacity(size_ + 1);
  data()[size_++] = b;
}

void PayloadBytes::swap(PayloadBytes& other) noexcept {
  std::byte tmp[sizeof inline_];
  std::memcpy(tmp, inline_, sizeof inline_);
  std::memcpy(inline_, other.inline_, sizeof inline_);
  std::memcpy(other.inline_, tmp, sizeof inline_);
  std::swap(heap_, other.heap_);
  std::swap(size_, other.size_);
  std::swap(capacity_, other.capacity_);
}

std::uint64_t fold_checksum(std::uint64_t value, std::size_t width) {
  CLB_EXPECT(width >= 1 && width <= 16, "fold_checksum: width in [1,16]");
  return hash_mix64(value) & ((1ULL << width) - 1);
}

MessageWriter& MessageWriter::put(std::uint64_t value, std::size_t width) {
  CLB_EXPECT(width >= 1 && width <= 64, "MessageWriter: width in [1,64]");
  if (width < 64) {
    CLB_EXPECT(value < (1ULL << width),
               "MessageWriter: value does not fit in declared width");
  }
  // LSB-first append within and across bytes (the layout the bit-by-bit
  // reference in fuzz_test checks against), via the dispatched packer: the
  // scalar level is the historical byte loop, the vector levels a single
  // word-window read-modify-write into PayloadBytes' slack-padded buffer.
  const std::size_t end_bit = bits_ + width;
  const std::size_t need = (end_bit + 7) / 8;
  if (need > data_.size()) data_.resize(need);  // new bytes are zeroed
  simd::kernels().pack_bits(data_.data(), bits_, value, width);
  bits_ = end_bit;
  return *this;
}

Message MessageWriter::finish() && {
  Message m;
  m.data = std::move(data_);
  m.bits = bits_;
  return m;
}

std::uint64_t MessageReader::get(std::size_t width) {
  CLB_EXPECT(width >= 1 && width <= 64, "MessageReader: width in [1,64]");
  CLB_EXPECT(pos_ + width <= msg_->bits, "MessageReader: read past end");
  const std::uint64_t value =
      simd::kernels().unpack_bits(msg_->data.data(), pos_, width);
  pos_ += width;
  return value;
}

}  // namespace congestlb::congest
