#include "common/stats.hpp"

namespace dsm {

const char* to_string(MissClass c) {
  switch (c) {
    case MissClass::kCold: return "cold";
    case MissClass::kCoherence: return "coherence";
    case MissClass::kCapacity: return "capacity/conflict";
    default: return "?";
  }
}

const char* to_string(TrafficClass c) {
  switch (c) {
    case TrafficClass::kData: return "data";
    case TrafficClass::kControl: return "control";
    case TrafficClass::kPageOp: return "page-op";
    case TrafficClass::kRecovery: return "recovery";
    default: return "?";
  }
}

const PolicyCounters* Stats::policy_counters(const std::string& name) const {
  for (const auto& p : policy)
    if (p.name == name) return &p;
  return nullptr;
}

MissBreakdown Stats::remote_misses_total() const {
  MissBreakdown sum;
  for (const auto& n : node) sum += n.remote_misses;
  return sum;
}

TrafficBreakdown Stats::traffic_total() const {
  TrafficBreakdown sum;
  for (const auto& n : node) sum += n.traffic;
  return sum;
}

std::uint64_t Stats::page_migrations_total() const {
  std::uint64_t s = 0;
  for (const auto& n : node) s += n.page_migrations;
  return s;
}

std::uint64_t Stats::page_replications_total() const {
  std::uint64_t s = 0;
  for (const auto& n : node) s += n.page_replications;
  return s;
}

std::uint64_t Stats::page_relocations_total() const {
  std::uint64_t s = 0;
  for (const auto& n : node) s += n.page_relocations;
  return s;
}

double Stats::remote_misses_per_node() const {
  if (node.empty()) return 0.0;
  return double(remote_misses_total().total()) / double(node.size());
}

double Stats::capacity_misses_per_node() const {
  if (node.empty()) return 0.0;
  return double(remote_misses_total().capacity_conflict()) /
         double(node.size());
}

double Stats::migrations_per_node() const {
  if (node.empty()) return 0.0;
  return double(page_migrations_total()) / double(node.size());
}

double Stats::replications_per_node() const {
  if (node.empty()) return 0.0;
  return double(page_replications_total()) / double(node.size());
}

double Stats::relocations_per_node() const {
  if (node.empty()) return 0.0;
  return double(page_relocations_total()) / double(node.size());
}

double Stats::traffic_bytes_per_node(TrafficClass c) const {
  if (node.empty()) return 0.0;
  return double(traffic_total().bytes_of(c)) / double(node.size());
}

std::uint64_t digest(const Stats& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::string_view name, std::uint64_t value) {
    for (const char c : name) h = (h ^ std::uint8_t(c)) * 0x100000001b3ull;
    for (int shift = 0; shift < 64; shift += 8)
      h = (h ^ ((value >> shift) & 0xff)) * 0x100000001b3ull;
  };
  s.visit(mix);
  for (const NodeStats& n : s.node) n.visit(mix);
  return h;
}

}  // namespace dsm
