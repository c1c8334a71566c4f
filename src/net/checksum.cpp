#include "net/checksum.hpp"

#include <bit>
#include <cstring>

namespace mdp::net {

namespace {

template <typename T>
T load_native(const std::byte* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Fold a 64-bit one's-complement sum to 16 bits with end-around carry. A
// nonzero sum never folds to 0.
std::uint16_t fold64(std::uint64_t s) noexcept {
  s = (s & 0xffffffff) + (s >> 32);
  s = (s & 0xffffffff) + (s >> 32);
  s = (s & 0xffff) + (s >> 16);
  s = (s & 0xffff) + (s >> 16);
  return static_cast<std::uint16_t>(s);
}

}  // namespace

// The one's-complement sum is independent of byte order (RFC 1071 2(B)):
// summing native-order words and swapping the folded result gives the
// big-endian sum. Words are read 64 bits at a time and added as two 32-bit
// halves, so each 64-bit accumulator gains < 2^33 per word and cannot
// overflow, nor can their total, for any buffer below 16 GiB.
std::uint32_t checksum_partial(const std::byte* data, std::size_t len,
                               std::uint32_t sum) noexcept {
  constexpr std::uint64_t kLo = 0xffffffff;
  std::uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
  for (; len >= 32; data += 32, len -= 32) {
    const auto w0 = load_native<std::uint64_t>(data);
    const auto w1 = load_native<std::uint64_t>(data + 8);
    const auto w2 = load_native<std::uint64_t>(data + 16);
    const auto w3 = load_native<std::uint64_t>(data + 24);
    a0 += (w0 & kLo) + (w0 >> 32);
    a1 += (w1 & kLo) + (w1 >> 32);
    a2 += (w2 & kLo) + (w2 >> 32);
    a3 += (w3 & kLo) + (w3 >> 32);
  }
  for (; len >= 8; data += 8, len -= 8) {
    const auto w = load_native<std::uint64_t>(data);
    a0 += (w & kLo) + (w >> 32);
  }
  if (len >= 4) {
    a1 += load_native<std::uint32_t>(data);
    data += 4;
    len -= 4;
  }
  if (len >= 2) {
    a2 += load_native<std::uint16_t>(data);
    data += 2;
    len -= 2;
  }
  if (len == 1) {
    // A trailing odd byte is the high-order byte of a zero-padded
    // big-endian word: the low lane of a little-endian one.
    const auto b = std::to_integer<std::uint64_t>(data[0]);
    a3 += std::endian::native == std::endian::little ? b : b << 8;
  }
  std::uint16_t folded = fold64(a0 + a1 + a2 + a3);
  if constexpr (std::endian::native == std::endian::little)
    folded = static_cast<std::uint16_t>(folded << 8 | folded >> 8);
  // Add the caller's partial with end-around carry, so no incoming sum
  // can overflow.
  std::uint64_t r = std::uint64_t{sum} + folded;
  r = (r & kLo) + (r >> 32);
  return static_cast<std::uint32_t>(r);
}

std::uint16_t checksum_fold(std::uint32_t sum) noexcept {
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::uint16_t checksum(const std::byte* data, std::size_t len) noexcept {
  return checksum_fold(checksum_partial(data, len));
}

std::uint16_t checksum_update16(std::uint16_t old_csum, std::uint16_t old_word,
                                std::uint16_t new_word) noexcept {
  // RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m')
  std::uint32_t sum = static_cast<std::uint16_t>(~old_csum);
  sum += static_cast<std::uint16_t>(~old_word);
  sum += new_word;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::uint16_t checksum_update32(std::uint16_t old_csum, std::uint32_t old_val,
                                std::uint32_t new_val) noexcept {
  std::uint16_t c = old_csum;
  c = checksum_update16(c, static_cast<std::uint16_t>(old_val >> 16),
                        static_cast<std::uint16_t>(new_val >> 16));
  c = checksum_update16(c, static_cast<std::uint16_t>(old_val & 0xffff),
                        static_cast<std::uint16_t>(new_val & 0xffff));
  return c;
}

std::uint32_t pseudo_header_sum(std::uint32_t src_ip, std::uint32_t dst_ip,
                                std::uint8_t protocol,
                                std::uint16_t l4_len) noexcept {
  std::uint32_t sum = 0;
  sum += src_ip >> 16;
  sum += src_ip & 0xffff;
  sum += dst_ip >> 16;
  sum += dst_ip & 0xffff;
  sum += protocol;
  sum += l4_len;
  return sum;
}

}  // namespace mdp::net
