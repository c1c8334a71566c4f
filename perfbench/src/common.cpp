#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "net/packet_builder.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) {
    const double x = v.empty() ? 0 : v[0];
    return {x, x, x};
  }
  std::sort(v.begin(), v.end());
  // statistics.quantiles, method="exclusive": m = n + 1, cut i at
  // position i*m/4 (1-based), interpolating between neighbours.
  const long n = static_cast<long>(v.size());
  const long m = n + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    if (j < 1) j = 1;
    if (j > n - 1) j = n - 1;
    const long delta = i * m - j * 4;
    cut[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

double spread(const std::vector<double>& v) {
  if (v.size() < 2) return 0;
  const Quartiles q = quartiles(v);
  return q.q2 != 0 ? (q.q3 - q.q1) / q.q2 : 0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  if (rank < 1) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double hist_quantile(const mdp::stats::LatencyHistogram& h, double q) {
  const auto cdf = h.cdf();  // (bucket upper edge, cumulative fraction)
  double prev = 0;
  for (const auto& [upper, cum] : cdf) {
    if (cum + 1e-12 < q) {
      prev = cum;
      continue;
    }
    // Bucket width: 1 below 2^kSubBits, else 2^(msb - kSubBits).
    std::uint64_t width = 1;
    constexpr unsigned kSub = mdp::stats::LatencyHistogram::kSubBits;
    if (upper >= (std::uint64_t{1} << kSub)) {
      const unsigned msb = 63 - static_cast<unsigned>(__builtin_clzll(upper));
      width = std::uint64_t{1} << (msb - kSub);
    }
    const double lower = static_cast<double>(upper - width + 1);
    const double frac =
        std::clamp(cum > prev ? (q - prev) / (cum - prev) : 1.0, 0.0, 1.0);
    return lower + frac * (static_cast<double>(upper) - lower);
  }
  return cdf.empty() ? 0 : static_cast<double>(cdf.back().first);
}

std::uint64_t payload_digest(const mdp::net::Packet& pkt) {
  const auto parsed = mdp::net::parse(pkt);
  const std::byte* p = pkt.data();
  std::size_t len = pkt.length();
  if (parsed) {
    p += parsed->payload_offset;
    len = parsed->payload_len;
  }
  std::uint64_t h = 0xcbf29ce484222325ULL ^ len;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  for (; i < len; ++i)
    h = (h ^ std::to_integer<std::uint64_t>(p[i])) * 0x100000001b3ULL;
  return h;
}

void DeliveryOracle::sent(std::uint32_t flow, std::uint64_t seq,
                          std::uint64_t digest) {
  ++attempted_;
  max_flow_ = std::max(max_flow_, flow);
  // A key registered twice is a workload bug, not a plane failure; the
  // second registration would hide a loss, so count it as one.
  if (!pending_.emplace(key(flow, seq), digest).second) ++lost_;
}

void DeliveryOracle::delivered(std::uint32_t flow, std::uint64_t seq,
                               std::uint64_t digest) {
  auto it = pending_.find(key(flow, seq));
  if (it == pending_.end()) {
    ++duplicated_;  // never sent, or already delivered once
    return;
  }
  if (it->second != digest) ++corrupted_;
  pending_.erase(it);
  auto [last, fresh] = last_seq_.try_emplace(flow, seq);
  if (!fresh) {
    if (seq < last->second) ++reordered_;
    else last->second = seq;
  }
}

std::uint64_t DeliveryOracle::finish() {
  lost_ += pending_.size();
  pending_.clear();
  return lost_;
}

int SpanLedger::layer(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<int>(i);
  names_.push_back(name);
  totals_.push_back(0);
  counts_.push_back(0);
  return static_cast<int>(names_.size() - 1);
}

void SpanLedger::record(int id, std::uint64_t start_ns, std::uint64_t end_ns,
                        int parent, std::uint64_t key) {
  const auto i = static_cast<std::size_t>(id);
  totals_[i] += end_ns - start_ns;
  ++counts_[i];
  if (kept_.size() < kKeep)
    kept_.push_back(Span{start_ns, end_ns, key, id, parent});
}

std::uint64_t SpanLedger::total_ns(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return totals_[i];
  return 0;
}

std::uint64_t SpanLedger::count(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return counts_[i];
  return 0;
}

bool SpanLedger::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\tkey\n");
  for (const Span& s : kept_)
    std::fprintf(f, "%s\t%llu\t%llu\t%s\t%llu\n",
                 names_[static_cast<std::size_t>(s.id)].c_str(),
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end),
                 s.parent < 0
                     ? "-"
                     : names_[static_cast<std::size_t>(s.parent)].c_str(),
                 static_cast<unsigned long long>(s.key));
  return std::fclose(f) == 0;
}

HostProbe run_host_probe() {
  HostProbe out;
  constexpr std::uint64_t kAluSteps = 4'000'000;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t t0 = wall_ns();
  for (std::uint64_t i = 0; i < kAluSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    // Opaque to the optimiser: keeps the loop between the clock reads.
    asm volatile("" : "+r"(x));
  }
  std::uint64_t t1 = wall_ns();
  out.alu_ns = static_cast<double>(t1 - t0) / kAluSteps;

  // Sattolo's shuffle gives one cycle through every slot, so each read
  // depends on the previous one and the prefetcher cannot help.
  constexpr std::size_t kSlots = (8u << 20) / sizeof(std::uint32_t);
  constexpr std::uint64_t kReads = 2'000'000;
  auto next = std::make_unique<std::uint32_t[]>(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i)
    next[i] = static_cast<std::uint32_t>(i);
  std::uint64_t r = x | 1;
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    r ^= r << 13;
    r ^= r >> 7;
    r ^= r << 17;
    std::swap(next[i], next[r % i]);
  }
  std::uint32_t at = 0;
  t0 = wall_ns();
  for (std::uint64_t i = 0; i < kReads; ++i) {
    at = next[at];
    asm volatile("" : "+r"(at));
  }
  t1 = wall_ns();
  out.mem_ns = static_cast<double>(t1 - t0) / kReads;
  return out;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
