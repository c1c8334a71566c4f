// Shared pieces of the perfbench driver: wall clock, order statistics,
// the delivery oracle, the span ledger of the traced run, the host
// reference probe and the result record every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "stats/histogram.hpp"

namespace perfbench {

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- order statistics --------------------------------------------------------

/// Median as Python's statistics.median gives it (mean of the two middle
/// values for an even count). Empty input gives 0.
double median(std::vector<double> v);

/// Quartiles as Python's statistics.quantiles(v, n=4) gives them (the
/// default "exclusive" method). Needs at least two values; fewer give the
/// single value (or 0) three times.
struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};
Quartiles quartiles(std::vector<double> v);

/// Interquartile range over the median, the spread measure the bounds in
/// BENCHMARK.json are judged by. 0 for fewer than two values.
double spread(const std::vector<double>& v);

/// Nearest-rank percentile of a sample (q in [0,1]); empty gives 0.
double percentile(std::vector<double> v, double q);

/// Quantile of a LatencyHistogram, interpolated linearly inside the
/// bucket that holds it. LatencyHistogram::quantile returns the bucket's
/// upper edge, so nearby runs often read the identical value; the
/// interpolated figure moves with the counts instead. Empty gives 0.
double hist_quantile(const mdp::stats::LatencyHistogram& h, double q);

// --- delivery oracle ---------------------------------------------------------

/// 64-bit digest of a frame's L4 payload (the bytes no NF element may
/// rewrite) plus its length. Headers are excluded: NAT and the load
/// balancer rewrite addresses and checksums on purpose.
std::uint64_t payload_digest(const mdp::net::Packet& pkt);

/// Exactly-once, intact-payload delivery check. The workload registers
/// every unit it sends under a unique key with the payload digest; each
/// delivery must match a registered, not-yet-delivered key with the same
/// digest. Whatever is still registered at the end was lost. Per-flow
/// order is tracked but out-of-order delivery is not a failure (the
/// plane's reorder buffer may release past a hole by design).
class DeliveryOracle {
 public:
  static std::uint64_t key(std::uint32_t flow, std::uint64_t seq) noexcept {
    return (std::uint64_t{flow} << 32) ^ seq;
  }

  void sent(std::uint32_t flow, std::uint64_t seq, std::uint64_t digest);
  void delivered(std::uint32_t flow, std::uint64_t seq,
                 std::uint64_t digest);
  /// Count every still-pending unit as lost; returns the loss count.
  std::uint64_t finish();

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t lost() const noexcept { return lost_; }
  std::uint64_t duplicated() const noexcept { return duplicated_; }
  std::uint64_t corrupted() const noexcept { return corrupted_; }
  std::uint64_t reordered() const noexcept { return reordered_; }
  std::uint64_t failed() const noexcept {
    return lost_ + duplicated_ + corrupted_;
  }
  std::uint32_t max_flow_id() const noexcept { return max_flow_; }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> pending_;  // key->digest
  std::unordered_map<std::uint32_t, std::uint64_t> last_seq_;
  std::uint64_t attempted_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint32_t max_flow_ = 0;
};

// --- span ledger (traced runs only) ------------------------------------------

/// In-memory span recorder for the traced run. Every span is folded into
/// a per-name total; the first kKeep spans are also kept verbatim (name,
/// start, end, parent, packet/flow key) and written out at exit.
class SpanLedger {
 public:
  static constexpr std::size_t kKeep = 200'000;

  /// Layer names are interned once; record() takes the returned id.
  int layer(const std::string& name);
  /// Record one span. `parent` is a layer id or -1 for a top-level span.
  void record(int id, std::uint64_t start_ns, std::uint64_t end_ns,
              int parent, std::uint64_t key);

  std::uint64_t total_ns(const std::string& name) const;
  std::uint64_t count(const std::string& name) const;
  /// Write the kept spans as tab-separated text; false on I/O error.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t start, end, key;
    int id, parent;
  };
  std::vector<std::string> names_;
  std::vector<std::uint64_t> totals_;
  std::vector<std::uint64_t> counts_;
  std::vector<Span> kept_;
};

// --- host reference probe ----------------------------------------------------

/// Fixed arithmetic loop plus a fixed loop of dependent random reads over
/// an 8 MiB buffer (beyond a core's L2). Reported as a diagnostic of how
/// contended the host was; never folded into an end-to-end metric.
struct HostProbe {
  double alu_ns = 0;  ///< ns per arithmetic step
  double mem_ns = 0;  ///< ns per random read
};
HostProbe run_host_probe();

/// Peak resident set of this process so far, MiB.
double peak_rss_mib();

// --- results -----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< why correct is false
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< where the traced run writes its spans
};

RunResult run_sim_noisy_neighbor(const RunOptions& opt);
RunResult run_sim_flow_churn(const RunOptions& opt);
RunResult run_rt_loopback(const RunOptions& opt);

/// Self-test of the statistics and the oracle; returns the failures.
std::vector<std::string> self_test();

}  // namespace perfbench
