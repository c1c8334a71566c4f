#include "nf/firewall.hpp"

#include <cstdlib>
#include <sstream>

#include "click/registry.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"

namespace mdp::nf {

namespace {

bool parse_prefix(const std::string& s, Prefix* out, std::string* err) {
  if (s == "any" || s == "*") {
    *out = Prefix{};
    return true;
  }
  std::string addr = s;
  std::uint8_t len = 32;
  std::size_t slash = s.find('/');
  if (slash != std::string::npos) {
    addr = s.substr(0, slash);
    int l = std::atoi(s.substr(slash + 1).c_str());
    if (l < 0 || l > 32) {
      *err = "bad prefix length in '" + s + "'";
      return false;
    }
    len = static_cast<std::uint8_t>(l);
  }
  std::uint32_t ip;
  if (!net::ipv4_from_string(addr, &ip)) {
    *err = "bad IPv4 address in '" + s + "'";
    return false;
  }
  out->addr = ip;
  out->len = len;
  return true;
}

bool parse_port_range(const std::string& s, PortRange* out,
                      std::string* err) {
  if (s == "any" || s == "*") {
    *out = PortRange{};
    return true;
  }
  std::size_t dash = s.find('-');
  char* end = nullptr;
  if (dash == std::string::npos) {
    unsigned long v = std::strtoul(s.c_str(), &end, 10);
    if (*end != '\0' || v > 65535) {
      *err = "bad port '" + s + "'";
      return false;
    }
    out->lo = out->hi = static_cast<std::uint16_t>(v);
    return true;
  }
  // Named substrings: `end` points into them after strtoul.
  const std::string lo_s = s.substr(0, dash), hi_s = s.substr(dash + 1);
  unsigned long lo = std::strtoul(lo_s.c_str(), &end, 10);
  bool lo_ok = (*end == '\0');
  unsigned long hi = std::strtoul(hi_s.c_str(), &end, 10);
  if (!lo_ok || *end != '\0' || lo > 65535 || hi > 65535 || lo > hi) {
    *err = "bad port range '" + s + "'";
    return false;
  }
  out->lo = static_cast<std::uint16_t>(lo);
  out->hi = static_cast<std::uint16_t>(hi);
  return true;
}

}  // namespace

std::optional<FwRule> FwRule::parse(const std::string& text,
                                    std::string* err) {
  std::istringstream is(text);
  std::string action;
  if (!(is >> action)) {
    *err = "empty rule";
    return std::nullopt;
  }
  FwRule rule;
  if (action == "allow") {
    rule.action = FwAction::kAllow;
  } else if (action == "deny") {
    rule.action = FwAction::kDeny;
  } else {
    *err = "rule must start with allow|deny, got '" + action + "'";
    return std::nullopt;
  }
  std::string kw;
  while (is >> kw) {
    std::string val;
    if (!(is >> val)) {
      *err = "keyword '" + kw + "' missing value";
      return std::nullopt;
    }
    if (kw == "proto") {
      if (val == "tcp") {
        rule.protocol = net::kIpProtoTcp;
      } else if (val == "udp") {
        rule.protocol = net::kIpProtoUdp;
      } else if (val == "any") {
        rule.protocol = 0;
      } else {
        *err = "unknown protocol '" + val + "'";
        return std::nullopt;
      }
    } else if (kw == "src") {
      if (!parse_prefix(val, &rule.src, err)) return std::nullopt;
    } else if (kw == "dst") {
      if (!parse_prefix(val, &rule.dst, err)) return std::nullopt;
    } else if (kw == "sport") {
      if (!parse_port_range(val, &rule.sport, err)) return std::nullopt;
    } else if (kw == "dport") {
      if (!parse_port_range(val, &rule.dport, err)) return std::nullopt;
    } else {
      *err = "unknown keyword '" + kw + "'";
      return std::nullopt;
    }
  }
  return rule;
}

// --- FirewallTable -----------------------------------------------------------

void FirewallTable::add_rule(FwRule rule) {
  rules_.push_back(rule);
  if (engine_ == Engine::kSrcTrie) rebuild_trie();
}

void FirewallTable::set_engine(Engine e) {
  engine_ = e;
  if (engine_ == Engine::kSrcTrie) rebuild_trie();
}

void FirewallTable::rebuild_trie() {
  trie_.clear();
  trie_.emplace_back();
  for (std::uint32_t i = 0; i < rules_.size(); ++i) {
    const Prefix& p = rules_[i].src;
    int node = 0;
    for (std::uint8_t bit = 0; bit < p.len; ++bit) {
      int b = (p.addr >> (31 - bit)) & 1;
      if (trie_[node].child[b] < 0) {
        trie_[node].child[b] = static_cast<int>(trie_.size());
        trie_.emplace_back();
      }
      node = trie_[node].child[b];
    }
    trie_[node].rules.push_back(i);
  }
}

FwAction FirewallTable::decide(const net::FlowKey& f,
                               std::size_t* rule_idx) const noexcept {
  return engine_ == Engine::kSrcTrie ? decide_trie(f, rule_idx)
                                     : decide_linear(f, rule_idx);
}

FwAction FirewallTable::decide_linear(const net::FlowKey& f,
                                      std::size_t* idx) const noexcept {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].matches(f)) {
      if (idx) *idx = i;
      return rules_[i].action;
    }
  }
  if (idx) *idx = rules_.size();
  return default_;
}

FwAction FirewallTable::decide_trie(const net::FlowKey& f,
                                    std::size_t* idx) const noexcept {
  // Walk the source-address trie collecting candidate rules anchored at
  // every prefix of f.src_ip, then first-match = minimum rule index among
  // candidates that fully match.
  std::uint32_t best = UINT32_MAX;
  int node = 0;
  for (std::uint8_t bit = 0; bit <= 32 && node >= 0; ++bit) {
    for (std::uint32_t r : trie_[node].rules) {
      if (r < best && rules_[r].matches(f)) best = r;
    }
    if (bit == 32) break;
    int b = (f.src_ip >> (31 - bit)) & 1;
    node = trie_[node].child[b];
  }
  if (best != UINT32_MAX) {
    if (idx) *idx = best;
    return rules_[best].action;
  }
  if (idx) *idx = rules_.size();
  return default_;
}

// --- Firewall element ----------------------------------------------------------

bool Firewall::configure(const std::vector<std::string>& args,
                         std::string* err) {
  for (const auto& arg : args) {
    if (arg.rfind("default ", 0) == 0) {
      std::string v = arg.substr(8);
      if (v == "allow") {
        table_.set_default(FwAction::kAllow);
      } else if (v == "deny") {
        table_.set_default(FwAction::kDeny);
      } else {
        *err = "default must be allow|deny";
        return false;
      }
      continue;
    }
    if (arg.rfind("engine ", 0) == 0) {
      std::string v = arg.substr(7);
      if (v == "linear") {
        table_.set_engine(FirewallTable::Engine::kLinear);
      } else if (v == "trie") {
        table_.set_engine(FirewallTable::Engine::kSrcTrie);
      } else {
        *err = "engine must be linear|trie";
        return false;
      }
      continue;
    }
    auto rule = FwRule::parse(arg, err);
    if (!rule) return false;
    table_.add_rule(*rule);
  }
  return true;
}

void Firewall::push(int, net::PacketPtr pkt) {
  auto parsed = net::parse(*pkt);
  if (!parsed) {
    ++denied_;
    if (output_connected(1)) output_push(1, std::move(pkt));
    return;
  }
  if (table_.decide(parsed->flow) == FwAction::kAllow) {
    ++allowed_;
    output_push(0, std::move(pkt));
  } else {
    ++denied_;
    if (output_connected(1)) output_push(1, std::move(pkt));
  }
}

void Firewall::push_batch(int, click::PacketBatch&& batch) {
  // Allowed packets ride the burst to output 0; denials divert per-packet
  // to output 1 (or drop) without breaking the burst.
  for (auto& pkt : batch) {
    if (!pkt) continue;
    auto parsed = net::parse(*pkt);
    if (parsed && table_.decide(parsed->flow) == FwAction::kAllow) {
      ++allowed_;
      continue;
    }
    ++denied_;
    if (output_connected(1)) {
      output_push(1, std::move(pkt));
    } else {
      pkt.reset();
    }
  }
  output_push_batch(0, std::move(batch));
}

MDP_REGISTER_ELEMENT(Firewall, "Firewall");

}  // namespace mdp::nf
