// Chaos-at-scale sweep: node crashes + link outages across 8 -> 256
// node routed fabrics.
//
// A fixed synthetic sharing pattern (pages homed round-robin, small
// region-spread reader groups, home writes forcing invalidation rounds)
// runs under four fault scenarios per (nodes, fabric) cell:
//
//   clean     fault layer off — the bit-identical baseline;
//   outages   seeded drop/dup/delay perturbations plus random link
//             outages (PR 7's chaos model);
//   crashes   two deterministic whole-node crash windows placed over
//             the workload's middle phase: requesters time out against
//             the dead homes, elect successors, and rebuild the
//             directory from the survivor census;
//   chaos     crashes and outages composed.
//
// The workload deliberately leaves dirty exclusive copies on a node
// that later crashes (the one irrecoverable outcome — counted as
// data_losses, never hidden), drives accesses *into* the crash windows
// (time is advanced explicitly so the windows cannot be missed at any
// machine size), and re-touches the re-homed pages after recovery so
// check_coherence() sees the post-rebuild directory.
//
// Flags: --nodes/--fabric pin one axis value; --dir-scheme and
// --link-bw apply to every cell; --fault-seed re-seeds and
// --fault-kinds masks the seeded outage scenarios, and
// --fault-retry-base/--fault-retry-max tune recovery; --json FILE
// emits one record per cell for CI archival. Any other flag exits 2.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "protocols/system_factory.hpp"

using namespace dsm;
using namespace dsm::bench;

namespace {

constexpr unsigned kPagesPerHome = 2;
constexpr unsigned kSharerPattern[] = {1, 2, 4, 7};

// Crash windows: node crash_a is down for the whole window, crash_b
// for its middle half. The workload jumps its clock into and past the
// window explicitly, so it lands on the middle phase at every machine
// size (run_cell checks the warmup never reaches it).
constexpr Cycle kWindowDown = Cycle(32) << 20;
constexpr Cycle kWindowUp = Cycle(64) << 20;

enum class Scenario { kClean = 0, kOutages, kCrashes, kChaos, kCount };

const char* to_string(Scenario s) {
  switch (s) {
    case Scenario::kClean: return "clean";
    case Scenario::kOutages: return "outages";
    case Scenario::kCrashes: return "crashes";
    case Scenario::kChaos: return "chaos";
    default: return "?";
  }
}

bool has_crashes(Scenario s) {
  return s == Scenario::kCrashes || s == Scenario::kChaos;
}
bool has_outages(Scenario s) {
  return s == Scenario::kOutages || s == Scenario::kChaos;
}

NodeId crash_a(std::uint32_t nodes) { return NodeId(1 % nodes); }
NodeId crash_b(std::uint32_t nodes) { return NodeId(nodes - 2); }

struct Cell {
  Scenario scenario;
  SystemConfig cfg;
  Stats stats{0};
  double wall_seconds = 0;
};

SystemConfig cell_config(const Options& opt, std::uint32_t nodes,
                         FabricKind fabric, Scenario sc) {
  // CC-NUMA runs no decision rule: policy page ops would race the
  // crash schedule and blur the recovery traffic this sweep measures.
  SystemConfig cfg = SystemConfig::base(SystemKind::kCcNuma);
  opt.apply(cfg);
  cfg.nodes = nodes;
  cfg.cpus_per_node = 1;
  cfg.fabric = fabric;
  // The scenario alone decides the fault plan: --fault-seed and
  // --fault-kinds reach only the seeded outage draws.
  cfg.faults = FaultConfig{};
  if (has_outages(sc)) {
    cfg.faults.seed = opt.given("--fault-seed") ? opt.fault_seed : 42;
    cfg.faults.fault_kinds = opt.fault_kinds;
    cfg.faults.drop_pct = 2.0;
    cfg.faults.dup_pct = 1.0;
    cfg.faults.delay_pct = 2.0;
    cfg.faults.rand_link_downs = 4;
  }
  if (has_crashes(sc)) {
    cfg.faults.node_downs.push_back(
        {crash_a(nodes), kWindowDown, kWindowUp});
    cfg.faults.node_downs.push_back(
        {crash_b(nodes), kWindowDown + (kWindowUp - kWindowDown) / 4,
         kWindowUp - (kWindowUp - kWindowDown) / 4});
  }
  return cfg;
}

void run_cell(Cell& c) {
  const std::uint32_t nodes = c.cfg.nodes;
  c.stats = Stats(nodes);
  const SweepTimer timer;
  auto sys = make_system(c.cfg, &c.stats);

  const unsigned pages = kPagesPerHome * nodes;
  const NodeId ca = crash_a(nodes);
  Cycle t = 0;

  // Warmup: bind homes (first-touch write by the home node), then build
  // the reader groups. Every 8th page is written *last* by the
  // soon-to-crash node ca — a dirty exclusive copy still outstanding
  // when the crash window opens, which dies with the node.
  for (unsigned p = 0; p < pages; ++p) {
    const NodeId h = NodeId(p % nodes);
    t = sys->access({h, h, page_addr(p), true, t}) + 8;
    for (NodeId r : readers_of(p, nodes, h, kSharerPattern))
      t = sys->access({r, r, page_addr(p), false, t}) + 8;
    if (p % 8 == 3 && h != ca)
      t = sys->access({ca, ca, page_addr(p), true, t}) + 8;
  }
  if (t >= kWindowDown) {
    std::fprintf(stderr,
                 "warmup ran into the crash window at %u nodes "
                 "(t=%llu) — widen kWindowDown\n",
                 nodes, static_cast<unsigned long long>(t));
    std::exit(2);
  }

  // Middle phase: jump the clock into the crash windows and touch every
  // page from a live remote node. Pages homed on a crashed node force
  // timeout escalation and an emergency re-home; pages whose dirty
  // owner crashed force a dead-owner recall (the data-loss path).
  t = std::max(t, kWindowDown + 1000);
  for (unsigned p = 0; p < pages; ++p) {
    const NodeId h = NodeId(p % nodes);
    const NodeId r = NodeId((h + 3) % nodes);
    t = sys->access({r, r, page_addr(p), p % 2 == 0, t}) + 8;
  }

  // Recovery phase: jump past the windows; the crashed nodes are back
  // up and re-read the pages that were re-homed away from them.
  t = std::max(t, kWindowUp + 1000);
  for (unsigned p = 0; p < pages; ++p) {
    const NodeId h = NodeId(p % nodes);
    t = sys->access({ca, ca, page_addr(p), false, t}) + 8;
    t = sys->access({h, h, page_addr(p), false, t}) + 8;
  }

  sys->check_coherence();
  sys->parallel_end(t);
  c.wall_seconds = timer.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(
      argc, argv,
      {"--nodes", "--fabric", "--dir-scheme", "--link-bw", "--json",
       "--fault-seed", "--fault-kinds", "--fault-retry-base",
       "--fault-retry-max"});

  std::vector<std::uint32_t> node_counts = {8, 64, 256};
  if (opt.given("--nodes")) node_counts = {opt.nodes};
  std::vector<FabricKind> fabrics = {FabricKind::kMesh2d,
                                     FabricKind::kTorus2d};
  if (opt.given("--fabric")) fabrics = {opt.fabric};

  // Every cell's config, checked before any cell runs.
  std::vector<Cell> cells;
  for (std::uint32_t nodes : node_counts)
    for (FabricKind fabric : fabrics)
      for (unsigned s = 0; s < unsigned(Scenario::kCount); ++s)
        cells.push_back(
            {Scenario(s), cell_config(opt, nodes, fabric, Scenario(s))});
  require_runnable(opt, cells, &Cell::cfg);

  std::printf(
      "=== Chaos-at-scale sweep: %u pages/home, crash windows "
      "[%llu,%llu) ===\n\n",
      kPagesPerHome, static_cast<unsigned long long>(kWindowDown),
      static_cast<unsigned long long>(kWindowUp));

  Table t({"nodes", "fabric", "scenario", "data KB", "ctl KB", "rcvy KB",
           "retries", "nacks", "rehomes", "rebuilds", "losses", "crash-drops",
           "hard-errs", "maxQ"});
  for (Cell& c : cells) {
    run_cell(c);
    const TrafficBreakdown tr = c.stats.traffic_total();
    t.add_row()
        .cell(std::uint64_t(c.cfg.nodes))
        .cell(dsm::to_string(c.cfg.fabric))
        .cell(to_string(c.scenario))
        .cell(double(tr.bytes_of(TrafficClass::kData)) / 1024.0, 1)
        .cell(double(tr.bytes_of(TrafficClass::kControl)) / 1024.0, 1)
        .cell(double(tr.bytes_of(TrafficClass::kRecovery)) / 1024.0, 1)
        .cell(c.stats.faults.retries)
        .cell(c.stats.faults.nacks)
        .cell(c.stats.faults.rehomes)
        .cell(c.stats.faults.dir_rebuilds)
        .cell(c.stats.faults.data_losses)
        .cell(c.stats.faults.crash_drops)
        .cell(c.stats.faults.hard_errors)
        .cell(std::uint64_t(c.stats.link_max_queue_depth()));
  }
  std::printf("%s\n", t.to_string().c_str());

  // Invariants the sweep exists to demonstrate. Violations fail the run
  // (and CI with it).
  bool ok = true;
  for (const Cell& c : cells) {
    const TrafficBreakdown tr = c.stats.traffic_total();
    const FaultStats& fs = c.stats.faults;
    if (c.scenario == Scenario::kClean) {
      // Fault layer off: zero recovery traffic, zero fault counters —
      // the bit-identical-baseline contract.
      if (tr.bytes_of(TrafficClass::kRecovery) != 0 || fs.retries != 0 ||
          fs.nacks != 0 || fs.rehomes != 0 || fs.crash_drops != 0 ||
          fs.hard_errors != 0) {
        std::printf("FAIL: clean cell has fault activity at %u/%s\n",
                    c.cfg.nodes, dsm::to_string(c.cfg.fabric));
        ok = false;
      }
    }
    if (has_crashes(c.scenario)) {
      // Crashed homes must actually be survived: successors elected,
      // directories rebuilt, and the retry/census traffic visible as
      // the recovery class.
      if (fs.rehomes == 0 || fs.dir_rebuilds == 0 ||
          tr.bytes_of(TrafficClass::kRecovery) == 0) {
        std::printf("FAIL: crash scenario survived nothing at %u/%s/%s\n",
                    c.cfg.nodes, dsm::to_string(c.cfg.fabric),
                    to_string(c.scenario));
        ok = false;
      }
      // The deliberately-orphaned dirty copies must be counted, not
      // silently absorbed.
      if (fs.data_losses == 0) {
        std::printf("FAIL: orphaned dirty copies uncounted at %u/%s/%s\n",
                    c.cfg.nodes, dsm::to_string(c.cfg.fabric),
                    to_string(c.scenario));
        ok = false;
      }
    }
  }
  std::printf(
      "crashes survived via re-homing; recovery traffic measured; losses "
      "counted: %s\n",
      ok ? "yes" : "NO — BUG");

  if (!opt.json_path.empty()) {
    std::vector<Record> records;
    for (const Cell& c : cells)
      records.push_back({{{"scenario", to_string(c.scenario)}},
                         &c.cfg,
                         &c.stats,
                         c.wall_seconds});
    write_json(opt.json_path, "fault_scale", records, /*jobs=*/1);
  }
  return ok ? 0 : 1;
}
