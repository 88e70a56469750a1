#include "workloads/catalog.hpp"

#include "common/log.hpp"
#include "workloads/barnes.hpp"
#include "workloads/cholesky.hpp"
#include "workloads/fmm.hpp"
#include "workloads/lu.hpp"
#include "workloads/ocean.hpp"
#include "workloads/patterns.hpp"
#include "workloads/radix.hpp"
#include "workloads/raytrace.hpp"

namespace dsm {

const std::vector<std::string>& paper_apps() {
  static const std::vector<std::string> apps = {
      "barnes", "cholesky", "fmm", "lu", "ocean", "radix", "raytrace"};
  return apps;
}

const std::vector<std::string>& all_workloads() {
  static const std::vector<std::string> all = {
      "barnes",   "cholesky", "fmm",
      "lu",       "ocean",    "radix",
      "raytrace", "read_shared", "migratory",
      "producer_consumer"};
  return all;
}

namespace {

// 16384 -> "16K", 1048576 -> "1M": Table 2's way of writing input sizes.
std::string count(std::uint32_t n) {
  if (n % (1u << 20) == 0) return std::to_string(n >> 20) + "M";
  if (n % (1u << 10) == 0) return std::to_string(n >> 10) + "K";
  return std::to_string(n);
}
std::string square(std::uint32_t n) {
  return std::to_string(n) + "x" + std::to_string(n);
}

// A workload at `scale`, and Table 2's description of its input, both
// from the one parameter set.
struct Built {
  std::unique_ptr<Workload> workload;
  std::string input;
};

Built build(const std::string& name, Scale scale) {
  const bool paper = scale == Scale::kPaper;
  const bool tiny = scale == Scale::kTiny;
  if (name == "lu") {
    LuParams p;
    p.n = tiny ? 64 : (paper ? 512 : 384);
    return {std::make_unique<LuWorkload>(p),
            square(p.n) + " matrix, " + square(p.block) + " blocks"};
  }
  if (name == "radix") {
    RadixParams p;
    p.keys = tiny ? 16 * 1024 : (paper ? 1024 * 1024 : 256 * 1024);
    return {std::make_unique<RadixWorkload>(p),
            count(p.keys) + " integers, radix " + std::to_string(p.radix)};
  }
  if (name == "ocean") {
    OceanParams p;
    p.n = tiny ? 34 : 130;
    p.sweeps = tiny ? 4 : (paper ? 48 : 24);
    return {std::make_unique<OceanWorkload>(p),
            square(p.n) + " ocean, " + std::to_string(p.sweeps) + " sweeps"};
  }
  if (name == "barnes") {
    BarnesParams p;
    p.particles = tiny ? 512 : (paper ? 16384 : 4096);
    p.steps = tiny ? 2 : 4;
    return {std::make_unique<BarnesWorkload>(p),
            count(p.particles) + " particles"};
  }
  if (name == "fmm") {
    FmmParams p;
    p.particles = tiny ? 1024 : (paper ? 16384 : 8192);
    p.grid = tiny ? 8 : 16;
    p.steps = 2;
    return {std::make_unique<FmmWorkload>(p),
            count(p.particles) + " particles"};
  }
  if (name == "cholesky") {
    CholeskyParams p;
    p.panels = tiny ? 24 : (paper ? 128 : 96);
    p.panel_rows = tiny ? 32 : (paper ? 128 : 96);
    p.panel_cols = tiny ? 8 : (paper ? 16 : 12);
    return {std::make_unique<CholeskyWorkload>(p),
            "synthetic tk16.O-like, " + std::to_string(p.panels) + " panels"};
  }
  if (name == "raytrace") {
    RaytraceParams p;
    p.image = tiny ? 32 : (paper ? 256 : 128);
    p.spheres = tiny ? 48 : (paper ? 8192 : 4096);
    return {std::make_unique<RaytraceWorkload>(p),
            "procedural scene, " + count(p.spheres) + " spheres, " +
                square(p.image) + " image"};
  }
  PatternParams p;
  p.elems = tiny ? 8 * 1024 : 64 * 1024;
  p.rounds = tiny ? 2 : 16;
  const std::string input = "synthetic sharing pattern, " + count(p.elems) +
                            " elements, " + std::to_string(p.rounds) +
                            " rounds";
  if (name == "read_shared")
    return {std::make_unique<ReadSharedWorkload>(p), input};
  if (name == "migratory")
    return {std::make_unique<MigratoryWorkload>(p), input};
  if (name == "producer_consumer")
    return {std::make_unique<ProducerConsumerWorkload>(p), input};
  DSM_ASSERT(false, "unknown workload: " + name);
  return {};
}

}  // namespace

std::string workload_input_description(const std::string& name, Scale scale) {
  const char* suffix = scale == Scale::kPaper   ? ""
                       : scale == Scale::kTiny ? " (tiny)"
                                               : " (reduced)";
  return build(name, scale).input + suffix;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        Scale scale) {
  return build(name, scale).workload;
}

}  // namespace dsm
