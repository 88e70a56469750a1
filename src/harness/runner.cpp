#include "harness/runner.hpp"

#include <chrono>
#include <cstdarg>
#include <cstdio>

#include "common/log.hpp"
#include "dsm/page_table.hpp"
#include "harness/parallel.hpp"
#include "net/fabric.hpp"
#include "protocols/system_factory.hpp"
#include "sim/engine.hpp"
#include "workloads/workload.hpp"

namespace dsm {

namespace {
[[gnu::format(printf, 1, 2)]] std::string format(const char* fmt, ...) {
  char buf[256];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}
}  // namespace

std::string validate(const SystemConfig& cfg) {
  const FaultConfig& f = cfg.faults;
  if (cfg.nodes > kMaxNodes)
    return format("--nodes: the page table holds at most %u nodes, not %u",
                  kMaxNodes, cfg.nodes);
  if (cfg.dir_scheme == DirScheme::kFullMap && cfg.nodes > 64)
    return format("--dir-scheme full holds at most 64 nodes, not %u",
                  cfg.nodes);
  if (f.drop_pct + f.dup_pct + f.delay_pct > 100.0)
    return format(
        "--fault-drop-pct, --fault-dup-pct and --fault-delay-pct sum to "
        "%g, past 100",
        f.drop_pct + f.dup_pct + f.delay_pct);
  for (const FaultConfig::NodeDown& nd : f.node_downs) {
    if (nd.node >= cfg.nodes)
      return format("--fault-node-down: node %u is out of range for %u nodes",
                    nd.node, cfg.nodes);
    if (nd.down >= nd.up)
      return format("--fault-node-down %u@%llu: the crash window is empty",
                    nd.node, static_cast<unsigned long long>(nd.down));
  }
  if (f.rand_node_downs > 0 && f.rand_node_down_len == 0)
    return "--fault-node-downs: the seeded crash windows are empty";
  if (cfg.fabric == FabricKind::kNiConstant)
    return f.has_link_outages()
               ? "--fault-link-down and --fault-link-downs need --fabric "
                 "mesh or torus: ni-constant has no links"
               : "";
  if (cfg.mesh_width != 0 && cfg.nodes % cfg.mesh_width != 0)
    return format("mesh width %u does not divide %u nodes", cfg.mesh_width,
                  cfg.nodes);
  const Grid grid(cfg);
  // The router+direction form has no flag: only a hand-built config
  // sets it.
  for (const FaultConfig::LinkDown& ld : f.link_downs)
    if (ld.router >= grid.routers() || ld.dir >= std::uint8_t(LinkDir::kCount))
      return format("link outage at router %u, direction %u: off the %ux%u "
                    "%s grid",
                    ld.router, unsigned(ld.dir), grid.width, grid.height,
                    to_string(cfg.fabric));
  for (const FaultConfig::NodeLinkDown& nl : f.node_link_downs) {
    if (nl.len == 0 || nl.down > kNeverCycle - nl.len)
      return format("--fault-link-down %u:%u: the outage window is empty or "
                    "wraps",
                    nl.a, nl.b);
    if (nl.a >= cfg.nodes || nl.b >= cfg.nodes)
      return format("--fault-link-down %u:%u: node out of range for %u nodes",
                    nl.a, nl.b, cfg.nodes);
    if (grid.hops(nl.a, nl.b) != 1)
      return format(
          "--fault-link-down %u:%u: not neighbours on the %ux%u %s grid",
          nl.a, nl.b, grid.width, grid.height, to_string(cfg.fabric));
  }
  return "";
}

RunResult run_one(const RunSpec& spec) {
  const std::string invalid = validate(spec.system);
  DSM_ASSERT(invalid.empty(), invalid);
  const auto wall_start = std::chrono::steady_clock::now();
  RunResult result;
  result.spec = spec;
  result.stats = Stats(spec.system.nodes);

  auto system = make_system(spec.system, &result.stats);
  Engine engine(spec.system, system.get(), &result.stats);

  SharedSpace space;
  auto workload = make_workload(spec.workload, spec.scale);
  const std::uint32_t nthreads = spec.system.total_cpus();
  workload->setup(engine, space, nthreads);

  std::vector<WorkerCtx> ctxs(nthreads);
  for (std::uint32_t t = 0; t < nthreads; ++t) {
    ctxs[t].cpu = &engine.cpu(t);
    ctxs[t].tid = t;
    ctxs[t].nthreads = nthreads;
    ctxs[t].rng.reseed(spec.system.seed + t);
    engine.spawn(t, workload->body(ctxs[t]));
  }

  system->parallel_begin(0);
  engine.run();
  system->parallel_end(engine.finish_time());

  if (spec.verify) workload->verify();

  result.cycles = engine.finish_time();
  result.stats.execution_cycles = result.cycles;
  result.stats.total_cycles = result.cycles;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

std::vector<RunResult> run_matrix(const std::vector<RunSpec>& specs,
                                  unsigned jobs) {
  std::vector<RunResult> results(specs.size());
  parallel_for_index(specs.size(), jobs,
                     [&](std::size_t i) { results[i] = run_one(specs[i]); });
  return results;
}

RunSpec paper_spec(SystemKind kind, const std::string& app, Scale scale) {
  RunSpec spec;
  spec.system = SystemConfig::base(kind);
  spec.workload = app;
  spec.scale = scale;
  return spec;
}

}  // namespace dsm
