// Hot-home fan-in sweep: where does the queueing live?
//
// K requester nodes simultaneously fetch blocks homed at one hot node
// of a 4x4 mesh (or torus, --fabric torus). The same open-loop access
// schedule runs under two wire models:
//
//   ni-only   mesh hop latency + edge NI contention only
//             (mesh_link_bytes_per_cycle = 0, PR-1's model)
//   link      every directed link en route is a FIFO channel occupied
//             for total_bytes / mesh_link_bytes_per_cycle cycles
//
// The sweep shows queueing moving from the network edge into the
// fabric: under the link model the links adjacent to the hot home
// develop FIFO depth > 1 while the ni-only model has no link state at
// all — and the per-class byte accounting is identical between the two
// models (contention changes latency, never bytes).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "protocols/system_factory.hpp"

using namespace dsm;
using namespace dsm::bench;

namespace {

constexpr std::uint32_t kNodes = 16;  // 4x4 grid
constexpr NodeId kHome = 5;           // interior router: four in-links
constexpr unsigned kRounds = 48;  // blocks fetched per requester
// Injection period per round: wide enough that the home's directory
// engine (72 cycles/request) drains each round's burst, so the queueing
// that remains is genuinely in the network, not a device backlog.
constexpr Cycle kSpacing = 2000;

struct SweepPoint {
  Stats stats{kNodes};
  double mean_latency = 0;
  std::uint32_t maxq_into_home = 0;
  std::uint32_t maxq_out_of_home = 0;
  std::uint32_t maxq_any = 0;
  Cycle recv_ni_busy_home = 0;
};

// Run one (model, fan-in) cell; optionally dump the busiest links.
SweepPoint run_cell(FabricKind fabric, std::uint32_t link_bw, unsigned fanin,
                    bool dump_links) {
  SystemConfig cfg = SystemConfig::base(SystemKind::kCcNuma);
  cfg.nodes = kNodes;
  cfg.cpus_per_node = 1;
  cfg.fabric = fabric;
  cfg.timing.mesh_link_bytes_per_cycle = link_bw;
  require_valid(cfg);

  SweepPoint out;
  auto sys = make_system(cfg, &out.stats);

  // Requester id -> node id, skipping the home node.
  std::vector<NodeId> requesters;
  for (NodeId n = 0; n < kNodes && requesters.size() < fanin; ++n)
    if (n != kHome) requesters.push_back(n);

  // Warmup: the home touches block 0 of every page so first-touch
  // binding homes them all at the hot node.
  Cycle t = 0;
  for (unsigned i = 0; i < fanin; ++i)
    t = sys->access({kHome, kHome, page_addr(i), false, t}) + 100;

  // Measured phase, open-loop: every requester fetches one fresh block
  // of its own page per round, all issued at the same instant, so the
  // requests (and the home's data replies) converge on the links around
  // the home. The schedule is fixed — latency feedback never throttles
  // injection — so both wire models see byte-identical traffic.
  const Cycle start = t + 100000;
  double latency_sum = 0;
  for (unsigned r = 0; r < kRounds; ++r) {
    const Cycle issue = start + Cycle(r) * kSpacing;
    for (unsigned i = 0; i < fanin; ++i) {
      const NodeId n = requesters[i];
      const Addr addr = page_addr(i) + Addr(1 + r) * kBlockBytes;
      const Cycle done = sys->access({n, n, addr, false, issue});
      latency_sum += double(done - issue);
    }
  }
  out.mean_latency = latency_sum / double(kRounds * fanin);
  const Fabric& fab = sys->fabric();
  out.recv_ni_busy_home = fab.recv_ni(kHome).total_busy();
  // Peak depth over the fan-in links delivering into the home, over
  // the home's own out-links, and over every link.
  const Grid& grid = fab.grid();
  for (std::uint32_t r = 0; r < grid.routers(); ++r)
    for (std::uint32_t d = 0; d < std::uint32_t(LinkDir::kCount); ++d)
      if (grid.neighbor(r, LinkDir(d)) == kHome)
        out.maxq_into_home = std::max(
            out.maxq_into_home, fab.out_link(r, LinkDir(d)).max_queue_depth);
  for (std::uint32_t d = 0; d < std::uint32_t(LinkDir::kCount); ++d)
    out.maxq_out_of_home =
        std::max(out.maxq_out_of_home,
                 fab.out_link(kHome, LinkDir(d)).max_queue_depth);
  out.maxq_any = fab.link_usage().max_queue_depth;

  if (dump_links) {
    const std::vector<LinkRef> links = busiest_links(fab);
    // Utilization over the measured injection window only — folding
    // the warmup and the 100k-cycle settling gap into the
    // denominator would halve the congestion signal. (The warmup's
    // own few link crossings are negligible against 48 rounds.)
    const Cycle window = Cycle(kRounds) * kSpacing;
    Table lt({"link", "msgs", "KB", "maxQ", "utilization"});
    for (std::size_t i = 0; i < links.size() && i < 8; ++i) {
      const MeshLink& l = *links[i].link;
      lt.add_row()
          .cell(links[i].name())
          .cell(l.msgs)
          .cell(double(l.bytes) / 1024.0, 1)
          .cell(std::uint64_t(l.max_queue_depth))
          .cell(render_meter(double(l.res.total_busy()) / double(window)));
    }
    std::printf("busiest links, fan-in %u (%s):\n%s\n", fanin,
                fab.name(), lt.to_string().c_str());
  }
  return out;
}

// Bulk-interference probe: a page-bulk copy (home -> node 7, routed
// east over links 5->E and 6->E) serializes for
// ~(16 + 4096) / mesh_link_bytes_per_cycle cycles per link, and a
// block fetch whose DATA reply shares the first of those links is
// issued while the bulk is on the wire. Under the ni-only model the
// reply only queues at the home's send NI; under the link model it
// also waits out the bulk's link occupancy — the gather cost moves
// from the edge into the fabric.
Cycle run_bulk_probe(FabricKind fabric, std::uint32_t link_bw) {
  SystemConfig cfg = SystemConfig::base(SystemKind::kCcNuma);
  cfg.nodes = kNodes;
  cfg.cpus_per_node = 1;
  cfg.fabric = fabric;
  cfg.timing.mesh_link_bytes_per_cycle = link_bw;
  require_valid(cfg);
  Stats stats(kNodes);
  auto sys = make_system(cfg, &stats);

  const Addr probe_page = page_addr(100);
  const Addr bulk_page = probe_page + kPageBytes;
  Cycle t = sys->access({kHome, kHome, probe_page, false, 0});
  t = sys->access({kHome, kHome, bulk_page, false, t + 100});
  // Pre-map the probe page at node 6 so the measured fetch pays no
  // soft fault.
  t = sys->access({6, 6, probe_page + kBlockBytes, false, t + 1000});

  const Cycle t0 = t + 100000;
  sys->replicate_page(page_of(bulk_page), 7, t0);
  // Issue the probe so its DATA reply reaches link 5->E while the bulk
  // holds it (the gather runs ~page_op_fixed cycles before the copy).
  const Cycle issue = t0 + cfg.timing.page_op_cost(1);
  const Cycle done =
      sys->access({6, 6, probe_page + 2 * kBlockBytes, false, issue});
  return done - issue;
}

bool same_bytes(const Stats& a, const Stats& b) {
  const TrafficBreakdown ta = a.traffic_total(), tb = b.traffic_total();
  for (std::size_t c = 0; c < std::size_t(TrafficClass::kCount); ++c)
    if (ta.bytes[c] != tb.bytes[c] || ta.msgs[c] != tb.msgs[c]) return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // The grid, home and schedule are fixed, so only the wire-model flags
  // apply.
  const Options opt = parse(argc, argv, {"--fabric", "--link-bw"});
  // This bench compares the link model with the NI-only model on a
  // routed grid, the mesh unless --fabric names one: ni-constant has no
  // grid, and a zero bandwidth makes the link model the NI-only one.
  const bool fabric_given = opt.given("--fabric");
  if (fabric_given && !opt.routed_fabric())
    bad_value("--fabric", to_string(opt.fabric),
              "mesh|torus: the wire models are compared on a routed grid");
  if (opt.link_bw == 0)
    bad_value("--link-bw", "0",
              "1 or more bytes/cycle: 0 is the NI-only model it is "
              "compared with");
  const FabricKind fabric = fabric_given ? opt.fabric : FabricKind::kMesh2d;
  std::printf(
      "=== Mesh link contention: hot-home fan-in sweep ===\n"
      "fabric: %s   grid: 4x4   home: node %u   rounds: %u   "
      "link bandwidth: %u B/cycle\n\n",
      to_string(fabric), kHome, kRounds, opt.link_bw);

  const std::vector<unsigned> fanins = {1, 2, 4, 8, 15};
  Table t({"fan-in", "model", "data KB", "ctl KB", "mean lat", "recvNI busy",
           "maxQ home-in", "maxQ home-out", "maxQ any"});
  bool bytes_ok = true;
  for (unsigned k : fanins) {
    SweepPoint ni = run_cell(fabric, /*link_bw=*/0, k, /*dump_links=*/false);
    SweepPoint ln = run_cell(fabric, opt.link_bw, k,
                             /*dump_links=*/k == fanins.back());
    bytes_ok = bytes_ok && same_bytes(ni.stats, ln.stats);
    for (const SweepPoint* p : {&ni, &ln}) {
      t.add_row()
          .cell(std::uint64_t(k))
          .cell(p == &ni ? "ni-only" : "link")
          .cell(double(p->stats.traffic_total().bytes_of(TrafficClass::kData)) /
                    1024.0,
                1)
          .cell(double(p->stats.traffic_total().bytes_of(
                    TrafficClass::kControl)) /
                    1024.0,
                1)
          .cell(p->mean_latency, 0)
          .cell(std::uint64_t(p->recv_ni_busy_home))
          .cell(std::uint64_t(p->maxq_into_home))
          .cell(std::uint64_t(p->maxq_out_of_home))
          .cell(std::uint64_t(p->maxq_any));
    }
  }
  std::printf("%s\n", t.to_string().c_str());

  Table probe({"model", "probe latency (cycles)"});
  probe.add_row().cell("ni-only").cell(
      std::uint64_t(run_bulk_probe(fabric, 0)));
  probe.add_row().cell("link").cell(
      std::uint64_t(run_bulk_probe(fabric, opt.link_bw)));
  std::printf(
      "block fetch racing a page-bulk copy over the same home link:\n%s\n",
      probe.to_string().c_str());

  std::printf("per-class byte accounting identical across wire models: %s\n",
              bytes_ok ? "yes" : "NO — BUG");
  return bytes_ok ? 0 : 1;
}
