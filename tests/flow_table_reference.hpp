// SlotFlowTable: the slot-array nf::FlowTable frozen as a reference model.
// Keys, values, tenants and clock bits live inline in the open-addressing
// slots. The differential test in test_tenants.cpp runs it side by side
// with nf::FlowTable (a compact slot index over dense entries) and
// requires identical answers, evict-callback order, iteration order and
// counters. Do not optimise this copy: its value is that it is the
// straightforward layout.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/flow_key.hpp"

namespace mdp::nf::reference {

template <typename Value>
class SlotFlowTable {
 public:
  /// Sentinel for "sweep over every tenant".
  static constexpr std::uint16_t kAnyTenant = 0xffff;

  /// Called just before an entry is evicted by the clock hand (NOT on
  /// erase/clear): owners reclaim derived state (NAT frees the port).
  using EvictFn = std::function<void(const net::FlowKey&, const Value&,
                                     std::uint16_t tenant)>;

  explicit SlotFlowTable(std::size_t capacity = 1 << 15)
      : capacity_(capacity ? capacity : 1) {
    std::size_t want = capacity_ * 2;
    if (want < 16) want = 16;
    slots_.resize(std::bit_ceil(want));
    mask_ = slots_.size() - 1;
  }

  // Move-only: a copy would be a second table of capacity() slots, and
  // an evict callback capturing its owner would then serve two tables.
  SlotFlowTable(SlotFlowTable&&) noexcept = default;
  SlotFlowTable& operator=(SlotFlowTable&&) noexcept = default;
  SlotFlowTable(const SlotFlowTable&) = delete;
  SlotFlowTable& operator=(const SlotFlowTable&) = delete;

  /// Lookup; a hit sets the entry's reference bit (it earns its second
  /// chance). Returns nullptr on miss. The pointer is invalidated by any
  /// mutating call.
  Value* find(const net::FlowKey& k) noexcept {
    const std::size_t i = find_slot(k);
    if (i == kNone) return nullptr;
    slots_[i].ref = true;
    return &slots_[i].value;
  }

  /// Lookup without touching the reference bit (pure read).
  const Value* peek(const net::FlowKey& k) const noexcept {
    const std::size_t i = find_slot(k);
    return i == kNone ? nullptr : &slots_[i].value;
  }

  /// Insert or update. An update refreshes the value and sets the
  /// reference bit. A fresh insert may displace a cold entry (second
  /// chance, honoring the tenant cap rule above); it fails — nullptr,
  /// counted in cap_rejections() — when the tenant is at its cap and owns
  /// only pinned/unevictable entries, or the table is full of pinned
  /// entries.
  Value* insert(const net::FlowKey& k, std::uint16_t tenant, Value v) {
    const std::size_t hit = find_slot(k);
    if (hit != kNone) {
      slots_[hit].value = std::move(v);
      slots_[hit].ref = true;
      return &slots_[hit].value;
    }
    const std::size_t cap = tenant_cap(tenant);
    if (cap != 0 && tenant_occupancy(tenant) >= cap) {
      // At the tenant cap: only the tenant's own entries may make room.
      if (!evict_one(tenant)) {
        ++cap_rejections_;
        return nullptr;
      }
    }
    if (size_ >= capacity_ && !evict_one(kAnyTenant)) {
      ++cap_rejections_;
      return nullptr;
    }
    std::size_t i = net::hash_flow(k) & mask_;
    while (slots_[i].used) i = (i + 1) & mask_;
    Slot& s = slots_[i];
    s.key = k;
    s.value = std::move(v);
    s.tenant = tenant;
    s.used = true;
    s.ref = false;  // insertion grants no reference: scan resistance
    s.pinned = false;
    ++size_;
    bump_occ(tenant, +1);
    return &s.value;
  }

  /// Remove an entry (owner-initiated; does NOT fire the evict callback
  /// and does not count as an eviction).
  bool erase(const net::FlowKey& k) {
    const std::size_t i = find_slot(k);
    if (i == kNone) return false;
    erase_slot(i);
    return true;
  }

  /// Pin/unpin: the clock hand defers eviction of pinned entries.
  bool pin(const net::FlowKey& k) noexcept {
    const std::size_t i = find_slot(k);
    if (i == kNone) return false;
    slots_[i].pinned = true;
    return true;
  }
  bool unpin(const net::FlowKey& k) noexcept {
    const std::size_t i = find_slot(k);
    if (i == kNone) return false;
    slots_[i].pinned = false;
    return true;
  }

  /// Evict one cold entry (clock sweep), optionally restricted to
  /// `tenant`'s entries. Fires the evict callback. Returns false when no
  /// candidate exists (empty / all pinned). Exposed so owners under
  /// resource pressure beyond occupancy (NAT port exhaustion) can force
  /// room the same way capacity pressure does.
  bool evict_one(std::uint16_t tenant = kAnyTenant) {
    // Two full laps: the first may only be clearing reference bits.
    const std::size_t budget = 2 * slots_.size();
    for (std::size_t n = 0; n < budget; ++n) {
      const std::size_t i = hand_;
      hand_ = (hand_ + 1) & mask_;
      Slot& s = slots_[i];
      if (!s.used) continue;
      if (tenant != kAnyTenant && s.tenant != tenant) continue;
      if (s.pinned) {
        ++pinned_deferrals_;
        continue;
      }
      if (s.ref) {
        s.ref = false;
        continue;
      }
      if (on_evict_) on_evict_(s.key, s.value, s.tenant);
      ++evictions_;
      erase_slot(i);
      return true;
    }
    return false;
  }

  /// Erase every entry for which `pred(key, value, tenant)` returns true
  /// (idle-timeout expiry). Owner-initiated: no evict callback, not
  /// counted as evictions. Returns the number erased.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t n = 0;
    std::size_t i = 0;
    while (i < slots_.size()) {
      Slot& s = slots_[i];
      if (s.used && pred(static_cast<const net::FlowKey&>(s.key),
                         static_cast<const Value&>(s.value), s.tenant)) {
        erase_slot(i);  // backward shift may move a new entry into i
        ++n;
      } else {
        ++i;
      }
    }
    return n;
  }

  /// Visit every live entry: fn(key, value, tenant). Read-only.
  template <typename Fn>
  void for_each(Fn fn) const {
    for (const Slot& s : slots_)
      if (s.used) fn(s.key, s.value, s.tenant);
  }

  void clear() {
    for (Slot& s : slots_) s.used = false;
    size_ = 0;
    hand_ = 0;
    tenant_occ_.assign(tenant_occ_.size(), 0);
  }

  void set_evict_callback(EvictFn fn) { on_evict_ = std::move(fn); }

  /// Cap `tenant`'s occupancy (0 = uncapped). Applies to future inserts;
  /// existing entries above a lowered cap age out through normal churn.
  void set_tenant_cap(std::uint16_t tenant, std::size_t cap) {
    if (tenant_cap_.size() <= tenant) tenant_cap_.resize(tenant + 1, 0);
    tenant_cap_[tenant] = cap;
  }
  std::size_t tenant_cap(std::uint16_t tenant) const noexcept {
    return tenant < tenant_cap_.size() ? tenant_cap_[tenant] : 0;
  }
  std::size_t tenant_occupancy(std::uint16_t tenant) const noexcept {
    return tenant < tenant_occ_.size() ? tenant_occ_[tenant] : 0;
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  bool full() const noexcept { return size_ >= capacity_; }
  /// Entries displaced by the clock hand (capacity / cap / owner pressure).
  std::uint64_t evictions() const noexcept { return evictions_; }
  /// Inserts refused because every candidate entry was pinned.
  std::uint64_t cap_rejections() const noexcept { return cap_rejections_; }
  /// Times the hand skipped a pinned (in-flight) entry it would otherwise
  /// have considered.
  std::uint64_t pinned_deferrals() const noexcept {
    return pinned_deferrals_;
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Slot {
    net::FlowKey key{};
    Value value{};
    std::uint16_t tenant = 0;
    bool used = false;
    bool ref = false;
    bool pinned = false;
  };

  std::size_t find_slot(const net::FlowKey& k) const noexcept {
    std::size_t i = net::hash_flow(k) & mask_;
    while (slots_[i].used) {
      if (slots_[i].key == k) return i;
      i = (i + 1) & mask_;
    }
    return kNone;
  }

  /// Backward-shift deletion: pull forward-chain entries back over the
  /// hole so linear probing never needs tombstones.
  void erase_slot(std::size_t i) {
    bump_occ(slots_[i].tenant, -1);
    --size_;
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (!slots_[j].used) break;
      const std::size_t ideal = net::hash_flow(slots_[j].key) & mask_;
      // Entry at j may move into the hole at i iff its probe chain from
      // `ideal` covers i: (j - ideal) mod S >= (j - i) mod S.
      if (((j - ideal) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = std::move(slots_[j]);
        i = j;
      }
    }
    slots_[i].used = false;
    slots_[i].ref = false;
    slots_[i].pinned = false;
  }

  void bump_occ(std::uint16_t tenant, int delta) {
    if (tenant_occ_.size() <= tenant) tenant_occ_.resize(tenant + 1, 0);
    tenant_occ_[tenant] += static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(delta));
  }

  std::size_t capacity_;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t hand_ = 0;
  std::size_t size_ = 0;
  std::vector<std::size_t> tenant_occ_;
  std::vector<std::size_t> tenant_cap_;
  EvictFn on_evict_;
  std::uint64_t evictions_ = 0;
  std::uint64_t cap_rejections_ = 0;
  std::uint64_t pinned_deferrals_ = 0;
};

}  // namespace mdp::nf::reference
