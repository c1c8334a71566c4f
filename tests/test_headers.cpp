// Tests for header views, packet builder/parser, checksums (full and
// incremental), and FlowKey hashing.
#include <gtest/gtest.h>

#include "net/checksum.hpp"
#include "net/flow_key.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"
#include "net/packet_pool.hpp"
#include "sim/rng.hpp"

#include <utility>
#include <vector>

namespace mdp::net {
namespace {

FlowKey test_flow() {
  FlowKey f;
  ipv4_from_string("192.168.1.10", &f.src_ip);
  ipv4_from_string("10.0.100.1", &f.dst_ip);
  f.src_port = 5555;
  f.dst_port = 80;
  return f;
}

TEST(Ipv4String, RoundTrip) {
  std::uint32_t ip = 0;
  ASSERT_TRUE(ipv4_from_string("1.2.3.4", &ip));
  EXPECT_EQ(ip, 0x01020304u);
  EXPECT_EQ(ipv4_to_string(ip), "1.2.3.4");
  EXPECT_EQ(ipv4_to_string(0xffffffff), "255.255.255.255");
}

TEST(Ipv4String, RejectsMalformed) {
  std::uint32_t ip = 0;
  EXPECT_FALSE(ipv4_from_string("1.2.3", &ip));
  EXPECT_FALSE(ipv4_from_string("256.1.1.1", &ip));
  EXPECT_FALSE(ipv4_from_string("1.2.3.4.5", &ip));
  EXPECT_FALSE(ipv4_from_string("bogus", &ip));
}

TEST(Builder, UdpRoundTripParses) {
  PacketPool pool(4, 2048);
  BuildSpec spec;
  spec.flow = test_flow();
  spec.payload_len = 100;
  auto pkt = build_udp(pool, spec);
  ASSERT_TRUE(pkt);
  EXPECT_EQ(pkt->length(), kEthernetHeaderLen + kIpv4MinHeaderLen +
                               kUdpHeaderLen + 100);

  auto parsed = parse(*pkt);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->has_l4);
  EXPECT_EQ(parsed->flow.src_ip, spec.flow.src_ip);
  EXPECT_EQ(parsed->flow.dst_ip, spec.flow.dst_ip);
  EXPECT_EQ(parsed->flow.src_port, 5555);
  EXPECT_EQ(parsed->flow.dst_port, 80);
  EXPECT_EQ(parsed->flow.protocol, kIpProtoUdp);
  EXPECT_EQ(parsed->payload_len, 100u);
}

TEST(Builder, TcpRoundTripParses) {
  PacketPool pool(4, 2048);
  BuildSpec spec;
  spec.flow = test_flow();
  spec.payload_len = 10;
  spec.tcp_seq = 0xdeadbeef;
  spec.tcp_flags = TcpView::kSyn;
  auto pkt = build_tcp(pool, spec);
  ASSERT_TRUE(pkt);
  auto parsed = parse(*pkt);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->flow.protocol, kIpProtoTcp);
  TcpView tcp(pkt->data() + parsed->l4_offset);
  EXPECT_EQ(tcp.seq(), 0xdeadbeefu);
  EXPECT_EQ(tcp.flags(), TcpView::kSyn);
}

TEST(Builder, Ipv4ChecksumValidates) {
  PacketPool pool(4, 2048);
  BuildSpec spec;
  spec.flow = test_flow();
  auto pkt = build_udp(pool, spec);
  auto parsed = parse(*pkt);
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(validate_ipv4_csum(*pkt, *parsed));
  // Corrupt a header byte: checksum must fail.
  pkt->data()[parsed->l3_offset + 8] ^= std::byte{0xff};  // TTL
  EXPECT_FALSE(validate_ipv4_csum(*pkt, *parsed));
}

TEST(Builder, L4ChecksumVerifiesAgainstPseudoHeader) {
  PacketPool pool(4, 2048);
  BuildSpec spec;
  spec.flow = test_flow();
  spec.payload_len = 37;  // odd length exercises the pad byte
  auto pkt = build_udp(pool, spec);
  auto parsed = parse(*pkt);
  ASSERT_TRUE(parsed);
  Ipv4View ip(pkt->data() + parsed->l3_offset);
  std::uint16_t l4_len =
      static_cast<std::uint16_t>(ip.total_length() - ip.header_len());
  std::uint32_t sum = pseudo_header_sum(ip.src(), ip.dst(), ip.protocol(),
                                        l4_len);
  sum = checksum_partial(pkt->data() + parsed->l4_offset, l4_len, sum);
  EXPECT_EQ(checksum_fold(sum), 0)
      << "checksum over segment incl. stored csum must fold to 0";
}

TEST(Parse, RejectsTruncatedAndNonIp) {
  PacketPool pool(4, 2048);
  auto pkt = pool.alloc();
  pkt->set_length(10);  // shorter than Ethernet
  EXPECT_FALSE(parse(*pkt).has_value());

  pkt->set_length(60);
  EthernetView eth(pkt->data());
  eth.set_ether_type(kEtherTypeArp);
  EXPECT_FALSE(parse(*pkt).has_value());
}

TEST(Checksum, IncrementalMatchesFullRecompute16) {
  sim::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::byte buf[40];
    for (auto& b : buf)
      b = static_cast<std::byte>(rng.uniform_u64(256));
    // Zero the checksum field location (bytes 10-11) then install.
    buf[10] = buf[11] = std::byte{0};
    std::uint16_t c0 = checksum(buf, sizeof(buf));
    store_be16(buf + 10, c0);

    // Change the 16-bit word at offset 8.
    std::uint16_t old_word = load_be16(buf + 8);
    std::uint16_t new_word =
        static_cast<std::uint16_t>(rng.uniform_u64(65536));
    std::uint16_t incr = checksum_update16(c0, old_word, new_word);

    store_be16(buf + 8, new_word);
    buf[10] = buf[11] = std::byte{0};
    std::uint16_t full = checksum(buf, sizeof(buf));
    EXPECT_EQ(incr, full) << "trial " << trial;
    store_be16(buf + 10, full);
  }
}

TEST(Checksum, IncrementalMatchesFullRecompute32) {
  sim::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::byte buf[40];
    for (auto& b : buf)
      b = static_cast<std::byte>(rng.uniform_u64(256));
    buf[10] = buf[11] = std::byte{0};
    std::uint16_t c0 = checksum(buf, sizeof(buf));
    store_be16(buf + 10, c0);

    std::uint32_t old_val = load_be32(buf + 12);
    std::uint32_t new_val = static_cast<std::uint32_t>(rng.next_u64());
    std::uint16_t incr = checksum_update32(c0, old_val, new_val);

    store_be32(buf + 12, new_val);
    buf[10] = buf[11] = std::byte{0};
    EXPECT_EQ(incr, checksum(buf, sizeof(buf))) << "trial " << trial;
  }
}

// --- checksum kernel differential oracle -----------------------------------
// The reference is the textbook RFC 1071 loop: big-endian 16-bit words one
// at a time, a trailing byte padded with zero, summed in 64 bits so that
// no incoming sum can overflow. The kernel sums 64-bit native words; both
// must fold to the same checksum for every input.

std::uint64_t reference_sum(const std::byte* data, std::size_t len,
                            std::uint64_t sum) {
  while (len >= 2) {
    sum += load_be16(data);
    data += 2;
    len -= 2;
  }
  if (len == 1) sum += std::to_integer<std::uint64_t>(data[0]) << 8;
  return sum;
}

std::uint16_t reference_fold(std::uint64_t sum) {
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::uint16_t kernel(const std::byte* data, std::size_t len,
                     std::uint32_t sum) {
  return checksum_fold(checksum_partial(data, len, sum));
}

constexpr std::size_t kOracleMaxLen = 9000;

TEST(ChecksumOracle, AllLengthsAtAllStartOffsets) {
  sim::Rng rng(1071);
  std::vector<std::byte> buf(kOracleMaxLen + 8);
  for (auto& b : buf) b = static_cast<std::byte>(rng.uniform_u64(256));
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= kOracleMaxLen; ++len) {
      const auto sum = static_cast<std::uint32_t>(rng.next_u64());
      const std::byte* p = buf.data() + off;
      ASSERT_EQ(kernel(p, len, sum), reference_fold(reference_sum(p, len, sum)))
          << "offset " << off << " length " << len << " sum " << sum;
    }
  }
}

TEST(ChecksumOracle, AllZeroAndAllOnesBuffers) {
  for (const std::byte fill : {std::byte{0x00}, std::byte{0xff}}) {
    std::vector<std::byte> buf(kOracleMaxLen + 8, fill);
    for (std::size_t off = 0; off < 8; ++off) {
      for (std::size_t len = 0; len <= kOracleMaxLen; ++len) {
        constexpr std::uint32_t kSums[] = {0u, 0xffffu, 0xffffffffu};
        const std::uint32_t sum = kSums[(len + off) % 3];
        const std::byte* p = buf.data() + off;
        ASSERT_EQ(kernel(p, len, sum),
                  reference_fold(reference_sum(p, len, sum)))
            << "fill " << std::to_integer<int>(fill) << " offset " << off
            << " length " << len << " sum " << sum;
      }
    }
  }
  // An all-zero buffer with no incoming sum is the one input whose sum is
  // +0: its checksum is 0xffff, never 0.
  std::vector<std::byte> zeros(64, std::byte{0});
  EXPECT_EQ(kernel(zeros.data(), zeros.size(), 0), 0xffff);
}

TEST(ChecksumOracle, PartialSumsChainAcrossEvenSplits) {
  sim::Rng rng(1624);
  std::vector<std::byte> buf(kOracleMaxLen);
  for (auto& b : buf) b = static_cast<std::byte>(rng.uniform_u64(256));
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t len = rng.uniform_u64(kOracleMaxLen + 1);
    // Two split points at even offsets (so every part starts on a 16-bit
    // word boundary of the whole), in order.
    std::size_t a = rng.uniform_u64(len / 2 + 1) * 2;
    std::size_t b = rng.uniform_u64(len / 2 + 1) * 2;
    if (a > b) std::swap(a, b);
    const auto init = static_cast<std::uint32_t>(rng.next_u64());
    std::uint32_t sum = checksum_partial(buf.data(), a, init);
    sum = checksum_partial(buf.data() + a, b - a, sum);
    sum = checksum_partial(buf.data() + b, len - b, sum);
    ASSERT_EQ(checksum_fold(sum),
              reference_fold(reference_sum(buf.data(), len, init)))
        << "length " << len << " splits " << a << "," << b;
  }
}

TEST(ChecksumOracle, IncomingSumsUpToMaxDoNotOverflow) {
  std::vector<std::byte> ones(kOracleMaxLen, std::byte{0xff});
  std::vector<std::byte> mixed(kOracleMaxLen);
  sim::Rng rng(5);
  for (auto& b : mixed) b = static_cast<std::byte>(rng.uniform_u64(256));
  for (const std::uint32_t sum :
       {0u, 1u, 0xfffeu, 0xffffu, 0x10000u, 0x7fffffffu, 0xfffeffffu,
        0xfffffffeu, 0xffffffffu}) {
    for (const auto* v : {&ones, &mixed}) {
      for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                    std::size_t{20}, std::size_t{1473},
                                    kOracleMaxLen}) {
        ASSERT_EQ(kernel(v->data(), len, sum),
                  reference_fold(reference_sum(v->data(), len, sum)))
            << "sum " << sum << " length " << len;
      }
    }
  }
}

TEST(FlowKey, CanonicalOrdersEndpoints) {
  FlowKey a{0x0a000001, 0x0b000001, 100, 200, 6};
  FlowKey b = a.reversed();
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_NE(a, b);
}

TEST(FlowKey, ReversedSwapsBothEndpoints) {
  FlowKey a{1, 2, 3, 4, 17};
  FlowKey r = a.reversed();
  EXPECT_EQ(r.src_ip, 2u);
  EXPECT_EQ(r.dst_ip, 1u);
  EXPECT_EQ(r.src_port, 4);
  EXPECT_EQ(r.dst_port, 3);
  EXPECT_EQ(r.reversed(), a);
}

TEST(FlowKey, HashIsStableAndSeedSensitive) {
  FlowKey a{0x0a000001, 0x0b000001, 100, 200, 6};
  EXPECT_EQ(hash_flow(a), hash_flow(a));
  EXPECT_NE(hash_flow(a), hash_flow(a, /*seed=*/12345));
  FlowKey b = a;
  b.src_port = 101;
  EXPECT_NE(hash_flow(a), hash_flow(b));
}

TEST(FlowKey, HashSpreadsAcrossBuckets) {
  // 4096 sequential flows over 8 buckets must not skew grossly.
  std::array<int, 8> buckets{};
  for (std::uint32_t i = 0; i < 4096; ++i) {
    FlowKey f{0x0a000000 + i, 0x0b000001, static_cast<std::uint16_t>(i),
              80, 17};
    ++buckets[hash_flow(f) % 8];
  }
  for (int b : buckets) {
    EXPECT_GT(b, 4096 / 8 / 2);
    EXPECT_LT(b, 4096 / 8 * 2);
  }
}

}  // namespace
}  // namespace mdp::net
