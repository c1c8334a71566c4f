// Self-test of the benchmark's own statistics and delivery oracle: the
// figures compared between runs are only as good as these.
#include <cmath>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"

namespace perfbench {

std::vector<std::string> self_test() {
  std::vector<std::string> fails;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) fails.push_back(what);
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-12; };

  // Reference values from Python's statistics.median / quantiles(n=4).
  expect(near(median({3, 1, 2}), 2), "median of odd count");
  expect(near(median({4, 1, 3, 2}), 2.5), "median of even count");
  {
    const Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    expect(near(q.q1, 2.75) && near(q.q2, 5.5) && near(q.q3, 8.25),
           "quartiles of 1..10");
  }
  {
    const Quartiles q = quartiles({5, 1, 4, 2, 3});
    expect(near(q.q1, 1.5) && near(q.q2, 3) && near(q.q3, 4.5),
           "quartiles of 1..5 (unsorted input)");
  }
  {
    const Quartiles q = quartiles({2, 7});
    expect(near(q.q1, 0.75) && near(q.q2, 4.5) && near(q.q3, 8.25),
           "quartiles of two values");
  }
  expect(near(spread({1, 2, 3, 4, 5}), 3.0 / 3.0), "spread of 1..5");
  expect(near(percentile({5, 1, 4, 2, 3}, 0.5), 3), "nearest-rank p50");
  expect(near(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99), 10),
         "nearest-rank p99");

  {
    // Exact buckets below 128 ns: the interpolated median is the value.
    mdp::stats::LatencyHistogram h;
    for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
    expect(near(hist_quantile(h, 0.5), 50), "histogram median, exact buckets");
    // One wide bucket holding every sample: quantiles spread across it,
    // never past its edges, and rise with q.
    mdp::stats::LatencyHistogram w;
    for (int i = 0; i < 1000; ++i) w.record(100'000);
    const double lo = hist_quantile(w, 0.1), hi = hist_quantile(w, 0.9);
    expect(lo < hi && lo >= 99'000 && hi <= static_cast<double>(w.max()) + 1024,
           "histogram quantile interpolates inside its bucket");
  }

  // Oracle: clean delivery, then each injected fault on its own.
  {
    DeliveryOracle o;
    for (std::uint64_t s = 0; s < 4; ++s) o.sent(1, s, 100 + s);
    for (std::uint64_t s = 0; s < 4; ++s) o.delivered(1, s, 100 + s);
    o.finish();
    expect(o.failed() == 0 && o.reordered() == 0 && o.attempted() == 4,
           "oracle passes clean delivery");
  }
  {
    DeliveryOracle o;
    o.sent(1, 0, 7);
    o.sent(1, 1, 7);
    o.delivered(1, 0, 7);
    o.finish();
    expect(o.lost() == 1 && o.failed() == 1, "oracle flags loss");
  }
  {
    DeliveryOracle o;
    o.sent(2, 0, 7);
    o.delivered(2, 0, 7);
    o.delivered(2, 0, 7);
    o.finish();
    expect(o.duplicated() == 1 && o.failed() == 1, "oracle flags duplicate");
  }
  {
    DeliveryOracle o;
    o.sent(3, 0, 7);
    o.delivered(3, 0, 8);
    o.finish();
    expect(o.corrupted() == 1 && o.failed() == 1, "oracle flags corruption");
  }
  {
    DeliveryOracle o;
    o.sent(4, 0, 7);
    o.sent(4, 1, 7);
    o.delivered(4, 1, 7);
    o.delivered(4, 0, 7);
    o.finish();
    expect(o.reordered() == 1 && o.failed() == 0,
           "oracle counts reordering without failing it");
  }
  {
    // Flows that share low bits must not share keys.
    DeliveryOracle o;
    o.sent(0x01000005, 0, 7);
    o.sent(0x02000005, 0, 7);
    o.delivered(0x01000005, 0, 7);
    o.delivered(0x02000005, 0, 7);
    o.finish();
    expect(o.failed() == 0, "oracle keys keep all 32 flow-id bits");
  }

  // Digest: header rewrites (NAT, LB) keep it, a payload flip changes it.
  {
    mdp::net::PacketPool pool(4, 2048);
    mdp::net::BuildSpec spec;
    spec.flow = {0x0b000001, 0x0a006401, 1234, 80, 0};
    spec.payload_len = 200;
    auto p = mdp::net::build_udp(pool, spec);
    const std::uint64_t d0 = payload_digest(*p);
    mdp::net::Ipv4View(p->data() + mdp::net::kEthernetHeaderLen)
        .set_dst(0x0a00c801);
    expect(payload_digest(*p) == d0, "digest ignores header rewrites");
    p->data()[p->length() - 1] ^= std::byte{1};
    expect(payload_digest(*p) != d0, "digest sees a flipped payload byte");
  }
  return fails;
}

}  // namespace perfbench
