// Scale-out directory sweep: 8 -> 1024 nodes under the three sharer-set
// schemes (common/node_set.hpp).
//
// A fixed synthetic sharing pattern runs at every (nodes, fabric,
// scheme) cell: each page, homed round-robin, is read by a small
// region-spread sharer group (1/2/4/13 readers, the 13 overflowing the
// 4-slot pointer array), invalidated by a home write, then re-read so
// the directory census sees live sharer sets. The logical access
// schedule is identical across schemes, which isolates the two numbers
// this sweep exists to report:
//
//   directory memory   bits the live sharer reps actually occupy vs the
//                      entries x nodes full-map extrapolation — limited
//                      and coarse grow with *measured sharers*, not
//                      machine width;
//   coarse overshoot   the conservative multicast invalidates every
//                      node a set region covers, and those extra
//                      inval/ack messages are charged as real control
//                      traffic (data bytes stay byte-identical across
//                      schemes — overshoot never moves block payloads).
//
// Flags: --nodes/--fabric/--dir-scheme pin one axis value instead of
// sweeping it; --link-bw and the --fault-* flags apply to every cell;
// --json FILE emits one record per cell for CI archival. Any other
// flag exits 2.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "protocols/system_factory.hpp"

using namespace dsm;
using namespace dsm::bench;

namespace {

constexpr unsigned kPagesPerHome = 2;

// Readers per page: the common small-sharer cases plus one group wide
// enough to overflow the 4-slot pointer array into the coarse vector.
constexpr unsigned kSharerPattern[] = {1, 2, 4, 13};

struct Cell {
  SystemConfig cfg;
  bool dump_links = false;  // print the hottest links after the run
  Stats stats{0};
  double wall_seconds = 0;
};

SystemConfig cell_config(const Options& opt, std::uint32_t nodes,
                         FabricKind fabric, DirScheme scheme) {
  // CC-NUMA runs no decision rule: page migration/replication
  // would perturb the fixed sharing pattern and hide the scheme-only
  // traffic delta.
  SystemConfig cfg = SystemConfig::base(SystemKind::kCcNuma);
  opt.apply(cfg);
  cfg.nodes = nodes;
  cfg.cpus_per_node = 1;
  cfg.fabric = fabric;
  cfg.dir_scheme = scheme;
  return cfg;
}

// Top directed links by bytes carried — the per-link heat summary for
// routed cells (the aggregate maxQ/KB columns live in the main table).
void print_hot_links(const Fabric& fab, const SystemConfig& cfg) {
  const std::vector<LinkRef> links = busiest_links(fab);
  Table lt({"link", "msgs", "KB", "maxQ"});
  for (std::size_t i = 0; i < links.size() && i < 6; ++i) {
    const MeshLink& l = *links[i].link;
    lt.add_row()
        .cell(links[i].name())
        .cell(l.msgs)
        .cell(double(l.bytes) / 1024.0, 1)
        .cell(std::uint64_t(l.max_queue_depth));
  }
  std::printf("hottest links, %u nodes / %s / %s:\n%s\n", cfg.nodes,
              to_string(cfg.fabric), to_string(cfg.dir_scheme),
              lt.to_string().c_str());
}

void run_cell(Cell& c) {
  const std::uint32_t nodes = c.cfg.nodes;
  c.stats = Stats(nodes);
  const SweepTimer timer;
  auto sys = make_system(c.cfg, &c.stats);

  const unsigned pages = kPagesPerHome * nodes;
  Cycle t = 0;

  // First touch: the home writes block 0, binding the page and taking
  // the block exclusive.
  for (unsigned p = 0; p < pages; ++p) {
    const NodeId h = NodeId(p % nodes);
    t = sys->access({h, h, page_addr(p), true, t}) + 8;
  }

  // Build the sharer sets, then invalidate them with a home write —
  // the fan-out walks the set's members (exact or conservative), so
  // this round is where coarse overshoot shows up as control bytes.
  for (unsigned p = 0; p < pages; ++p) {
    const NodeId h = NodeId(p % nodes);
    for (NodeId r : readers_of(p, nodes, h, kSharerPattern))
      t = sys->access({r, r, page_addr(p), false, t}) + 8;
    t = sys->access({h, h, page_addr(p), true, t}) + 8;
  }

  // Rebuild the sets so the end-of-run census measures live sharers
  // (the write round left every entry exclusive at the home).
  for (unsigned p = 0; p < pages; ++p) {
    const NodeId h = NodeId(p % nodes);
    for (NodeId r : readers_of(p, nodes, h, kSharerPattern))
      t = sys->access({r, r, page_addr(p), false, t}) + 8;
  }

  sys->check_coherence();
  sys->parallel_end(t);
  c.wall_seconds = timer.seconds();
  if (c.dump_links) print_hot_links(sys->fabric(), c.cfg);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(
      argc, argv,
      {"--nodes", "--fabric", "--dir-scheme", "--link-bw", "--json",
       "--fault-seed", "--fault-drop-pct", "--fault-dup-pct",
       "--fault-delay-pct", "--fault-delay-cycles", "--fault-link-down",
       "--fault-link-downs", "--fault-node-down", "--fault-node-downs",
       "--fault-kinds", "--fault-retry-base", "--fault-retry-max"});

  std::vector<std::uint32_t> node_counts = {8, 64, 256, 1024};
  if (opt.given("--nodes")) node_counts = {opt.nodes};
  std::vector<FabricKind> fabrics = {FabricKind::kNiConstant,
                                     FabricKind::kMesh2d,
                                     FabricKind::kTorus2d};
  if (opt.given("--fabric")) fabrics = {opt.fabric};

  // Every cell's config, checked before any cell runs; the link dump
  // goes with the last scheme of each routed fabric at the widest size.
  std::vector<Cell> cells;
  for (std::uint32_t nodes : node_counts) {
    for (FabricKind fabric : fabrics) {
      std::vector<DirScheme> schemes;
      if (opt.given("--dir-scheme")) {
        schemes = {opt.dir_scheme};
      } else {
        if (nodes <= 64) schemes.push_back(DirScheme::kFullMap);
        schemes.push_back(DirScheme::kLimitedPtr);
        schemes.push_back(DirScheme::kCoarse);
      }
      for (DirScheme scheme : schemes)
        cells.push_back({cell_config(opt, nodes, fabric, scheme),
                         fabric != FabricKind::kNiConstant &&
                             nodes == node_counts.back() &&
                             scheme == schemes.back()});
    }
  }
  require_runnable(opt, cells, &Cell::cfg);

  std::printf(
      "=== Scale-out directory sweep: %u pages/home, readers "
      "{1,2,4,13} ===\n\n",
      kPagesPerHome);

  Table t({"nodes", "fabric", "scheme", "data KB", "ctl KB", "ctl msgs",
           "entries", "sharers", "bits/entry", "full-map b/e", "dir KB",
           "full KB", "link KB", "maxQ"});
  for (Cell& c : cells) {
    run_cell(c);
    const TrafficBreakdown tr = c.stats.traffic_total();
    t.add_row()
        .cell(std::uint64_t(c.cfg.nodes))
        .cell(to_string(c.cfg.fabric))
        .cell(to_string(c.cfg.dir_scheme))
        .cell(double(tr.bytes_of(TrafficClass::kData)) / 1024.0, 1)
        .cell(double(tr.bytes_of(TrafficClass::kControl)) / 1024.0, 1)
        .cell(tr.msgs_of(TrafficClass::kControl))
        .cell(c.stats.dir.entries)
        .cell(c.stats.dir.sharers_measured)
        .cell(c.stats.dir.bits_per_entry(), 1)
        .cell(double(c.cfg.nodes), 0)
        .cell(double(c.stats.dir.sharer_bits_used) / 8.0 / 1024.0, 2)
        .cell(double(c.stats.dir.sharer_bits_full_map) / 8.0 / 1024.0, 2)
        .cell(double(c.stats.link_bytes_total()) / 1024.0, 1)
        .cell(std::uint64_t(c.stats.link_max_queue_depth()));
  }
  std::printf("%s\n", t.to_string().c_str());

  // Invariants the sweep exists to demonstrate. Violations fail the run
  // (and CI with it).
  bool ok = true;
  for (const Cell& c : cells) {
    const std::uint32_t nodes = c.cfg.nodes;
    // Full map pays machine width for every live entry.
    if (c.cfg.dir_scheme == DirScheme::kFullMap &&
        c.stats.dir.sharer_bits_used != c.stats.dir.entries * nodes) {
      std::printf("FAIL: full-map bits != entries x nodes at %u nodes\n",
                  nodes);
      ok = false;
    }
    // Wide machines: compact schemes stay strictly below the full-map
    // extrapolation — directory memory tracks sharers, not node count.
    if (nodes > 64 && c.cfg.dir_scheme != DirScheme::kFullMap &&
        c.stats.dir.sharer_bits_used >= c.stats.dir.sharer_bits_full_map) {
      std::printf("FAIL: %s bits >= full-map extrapolation at %u nodes\n",
                  to_string(c.cfg.dir_scheme), nodes);
      ok = false;
    }
  }
  // Within a (nodes, fabric) pair: data bytes are scheme-invariant
  // (overshoot moves control messages, never payloads), and once
  // regions span multiple nodes the coarse scheme's conservative
  // multicast must show up as strictly more control traffic.
  for (const Cell& c : cells) {
    for (const Cell& d : cells) {
      const SystemConfig& a = c.cfg;
      const SystemConfig& b = d.cfg;
      if (a.nodes != b.nodes || a.fabric != b.fabric) continue;
      const TrafficBreakdown ta = c.stats.traffic_total();
      const TrafficBreakdown tb = d.stats.traffic_total();
      if (ta.bytes_of(TrafficClass::kData) !=
          tb.bytes_of(TrafficClass::kData)) {
        std::printf("FAIL: data bytes differ across schemes at %u/%s\n",
                    a.nodes, to_string(a.fabric));
        ok = false;
      }
      if (a.dir_scheme == DirScheme::kCoarse &&
          b.dir_scheme == DirScheme::kLimitedPtr &&
          NodeSetLayout::make(a.nodes, DirScheme::kCoarse).region_shift > 0 &&
          ta.bytes_of(TrafficClass::kControl) <=
              tb.bytes_of(TrafficClass::kControl)) {
        std::printf(
            "FAIL: coarse overshoot invisible in control bytes at %u/%s\n",
            a.nodes, to_string(a.fabric));
        ok = false;
      }
    }
  }
  std::printf(
      "directory memory tracks measured sharers; coarse overshoot charged "
      "as control traffic: %s\n",
      ok ? "yes" : "NO — BUG");

  if (!opt.json_path.empty()) {
    std::vector<Record> records;
    for (const Cell& c : cells)
      records.push_back({{}, &c.cfg, &c.stats, c.wall_seconds});
    write_json(opt.json_path, "scaleout", records, /*jobs=*/1);
  }
  return ok ? 0 : 1;
}
