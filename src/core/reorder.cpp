#include "core/reorder.hpp"

namespace mdp::core {

struct ReorderBuffer::Busy {
  ReorderBuffer& rb;
  explicit Busy(ReorderBuffer& r) : rb(r) { ++rb.busy_depth_; }
  ~Busy() {
    // Retire under the mark too: a retired flow's held packets emit, and
    // that emit may end further flows.
    while (rb.busy_depth_ == 1 && !rb.ended_.empty()) {
      const std::uint32_t flow_id = rb.ended_.back();
      rb.ended_.pop_back();
      rb.retire(flow_id);
    }
    --rb.busy_depth_;
  }
};

void ReorderBuffer::release(FlowState& st, net::PacketPtr pkt,
                            sim::TimeNs arrived_ns) {
  dwell_.record(eq_.now() - arrived_ns);
  st.next_expected = pkt->anno().seq + 1;
  emit_(std::move(pkt));
}

std::size_t ReorderBuffer::drain(FlowState& st) {
  // Release consecutive buffered packets starting at next_expected.
  std::size_t n = 0;
  for (auto it = st.pending.find(st.next_expected); it != st.pending.end();
       it = st.pending.find(st.next_expected), ++n) {
    Held h = std::move(it->second);
    st.pending.erase(it);
    --buffered_count_;
    release(st, std::move(h.pkt), h.arrived_ns);
  }
  return n;
}

std::size_t ReorderBuffer::release_held(FlowState& st) {
  // pending is seq-ordered: hop each hole to the smallest held seq, so
  // per-flow order holds.
  std::size_t n = 0;
  while (!st.pending.empty()) {
    st.next_expected = st.pending.begin()->first;
    n += drain(st);
  }
  return n;
}

void ReorderBuffer::arm_timer(std::uint32_t flow_id, FlowState& st) {
  if (st.timer_armed) return;
  st.timer_armed = true;
  eq_.schedule_in(cfg_.timeout_ns,
                  [this, flow_id] { on_timeout(flow_id); });
}

void ReorderBuffer::on_timeout(std::uint32_t flow_id) {
  auto fit = flows_.find(flow_id);
  if (fit == flows_.end()) return;  // flow ended while the timer was armed
  Busy busy(*this);
  FlowState& st = fit->second;
  st.timer_armed = false;
  if (st.pending.empty()) return;
  // Only skip holes that have actually waited the full timeout; packets
  // buffered more recently get a fresh timer.
  sim::TimeNs oldest = st.pending.begin()->second.arrived_ns;
  for (const auto& [seq, h] : st.pending)
    if (h.arrived_ns < oldest) oldest = h.arrived_ns;
  if (eq_.now() - oldest >= cfg_.timeout_ns) {
    // Advance the window past the hole: release from the smallest
    // buffered seq onward.
    ++timeout_releases_;
    st.next_expected = st.pending.begin()->first;
    drain(st);
  }
  if (!st.pending.empty()) arm_timer(flow_id, st);
}

void ReorderBuffer::submit(net::PacketPtr pkt) {
  Busy busy(*this);
  const auto& a = pkt->anno();
  FlowState& st = flows_[a.flow_id];

  if (a.seq == st.next_expected) {
    ++in_order_;
    release(st, std::move(pkt), eq_.now());
    drain(st);
    return;
  }

  ++out_of_order_;
  if (a.seq < st.next_expected) {
    // Predecessor already skipped past this seq (timeout); deliver late
    // rather than drop — better a reordered packet than a lost one.
    ++late_after_skip_;
    dwell_.record(0);
    emit_(std::move(pkt));
    return;
  }

  if (!cfg_.enabled) {
    // Detection-only mode: count and pass through immediately.
    st.next_expected = a.seq + 1;
    dwell_.record(0);
    emit_(std::move(pkt));
    return;
  }

  const std::uint64_t seq = a.seq;
  const std::uint32_t flow_id = a.flow_id;
  st.pending.emplace(seq, Held{std::move(pkt), eq_.now()});
  ++buffered_count_;
  arm_timer(flow_id, st);
}

std::size_t ReorderBuffer::flush_all() {
  Busy busy(*this);
  std::size_t released = 0;
  // Any armed timer then finds pending empty and disarms itself.
  for (auto& [flow_id, st] : flows_) released += release_held(st);
  flushed_ += released;
  return released;
}

void ReorderBuffer::end_flow(std::uint32_t flow_id) {
  ended_.push_back(flow_id);
  if (busy_depth_ == 0) Busy now(*this);  // retires it on the way out
}

void ReorderBuffer::retire(std::uint32_t flow_id) {
  auto it = flows_.find(flow_id);
  if (it == flows_.end()) return;
  flushed_ += release_held(it->second);
  flows_.erase(flow_id);  // by key: the emits above may have rehashed
}

}  // namespace mdp::core
