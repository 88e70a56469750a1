// Workload and harness tests: every kernel computes a correct result
// under simulation, runs deterministically, and keeps the coherence
// invariants on every system kind; validate() refuses every
// configuration that cannot run.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "harness/parallel.hpp"
#include "harness/runner.hpp"

namespace dsm {
namespace {

RunSpec tiny_spec(SystemKind kind, const std::string& app) {
  RunSpec s = paper_spec(kind, app, Scale::kTiny);
  s.system.nodes = 4;  // smaller cluster keeps tiny runs fast
  s.system.cpus_per_node = 2;
  return s;
}

TEST(Catalog, KnowsAllPaperApps) {
  EXPECT_EQ(paper_apps().size(), 7u);
  for (const auto& name : paper_apps()) {
    auto w = make_workload(name, Scale::kTiny);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->name(), name);
  }
}

TEST(Catalog, InputDescriptionsExist) {
  for (const auto& name : all_workloads()) {
    EXPECT_FALSE(workload_input_description(name, Scale::kDefault).empty());
    EXPECT_FALSE(workload_input_description(name, Scale::kPaper).empty());
  }
}

TEST(Catalog, InputDescriptionNamesTheBuiltInput) {
  // The default lu run factors a 384x384 matrix; Table 2 must say so.
  EXPECT_EQ(workload_input_description("lu", Scale::kDefault),
            "384x384 matrix, 16x16 blocks (reduced)");
  EXPECT_EQ(workload_input_description("lu", Scale::kPaper),
            "512x512 matrix, 16x16 blocks");
  EXPECT_EQ(workload_input_description("radix", Scale::kPaper),
            "1M integers, radix 1024");
}

TEST(Catalog, ScalesDiffer) {
  // Paper scale must be at least as large as default (checked indirectly
  // through the run: more references).
  auto d = run_one(tiny_spec(SystemKind::kCcNuma, "radix"));
  RunSpec s = tiny_spec(SystemKind::kCcNuma, "radix");
  s.scale = Scale::kDefault;
  auto p = run_one(s);
  EXPECT_GT(p.stats.shared_reads + p.stats.shared_writes,
            d.stats.shared_reads + d.stats.shared_writes);
}

// Every workload verifies on every system kind (tiny scale). verify()
// inside run_one asserts on wrong results (sorted output, factorization
// residuals, finite fields, reader agreement).
class WorkloadMatrixTest
    : public ::testing::TestWithParam<std::tuple<std::string, SystemKind>> {};

TEST_P(WorkloadMatrixTest, VerifiesUnderSimulation) {
  const auto& [app, kind] = GetParam();
  auto r = run_one(tiny_spec(kind, app));
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GT(r.stats.shared_reads + r.stats.shared_writes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, WorkloadMatrixTest,
    ::testing::Combine(
        ::testing::Values("barnes", "cholesky", "fmm", "lu", "ocean", "radix",
                          "raytrace", "read_shared", "migratory",
                          "producer_consumer"),
        ::testing::Values(SystemKind::kCcNuma, SystemKind::kPerfectCcNuma,
                          SystemKind::kCcNumaMigRep, SystemKind::kRNuma)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         std::string(to_string(std::get<1>(info.param)));
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

class DeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismTest, TwoRunsBitIdentical) {
  auto a = run_one(tiny_spec(SystemKind::kRNuma, GetParam()));
  auto b = run_one(tiny_spec(SystemKind::kRNuma, GetParam()));
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.stats.shared_reads, b.stats.shared_reads);
  EXPECT_EQ(a.stats.shared_writes, b.stats.shared_writes);
  EXPECT_EQ(a.stats.remote_misses_total().total(),
            b.stats.remote_misses_total().total());
  EXPECT_EQ(a.stats.page_relocations_total(),
            b.stats.page_relocations_total());
  EXPECT_EQ(digest(a.stats), digest(b.stats));
}

INSTANTIATE_TEST_SUITE_P(Apps, DeterminismTest,
                         ::testing::Values("lu", "radix", "ocean", "barnes",
                                           "cholesky", "fmm", "raytrace",
                                           "migratory"));

TEST(Harness, MatrixMatchesSequentialRuns) {
  std::vector<RunSpec> specs = {
      tiny_spec(SystemKind::kCcNuma, "radix"),
      tiny_spec(SystemKind::kRNuma, "radix"),
      tiny_spec(SystemKind::kPerfectCcNuma, "radix"),
  };
  auto par = run_matrix(specs, 3);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto seq = run_one(specs[i]);
    EXPECT_EQ(par[i].cycles, seq.cycles) << "spec " << i;
    EXPECT_EQ(digest(par[i].stats), digest(seq.stats)) << "spec " << i;
  }
}

// Every index runs exactly once, whatever the worker count: inline
// (jobs 1), more workers than indices, and 0 (one per hardware thread).
TEST(Harness, ParallelForIndexCallsEachIndexOnce) {
  for (const std::size_t n : {0, 1, 7}) {
    for (const unsigned jobs : {0u, 1u, 3u, 16u}) {
      SCOPED_TRACE(testing::Message() << "n " << n << " jobs " << jobs);
      const auto calls = std::make_unique<std::atomic<int>[]>(n + 1);
      parallel_for_index(n, jobs, [&](std::size_t i) {
        ASSERT_LT(i, n);
        calls[i]++;
      });
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(calls[i].load(), 1) << i;
    }
  }
}

TEST(Harness, NormalizationAgainstBaseline) {
  auto base = run_one(tiny_spec(SystemKind::kPerfectCcNuma, "migratory"));
  auto sys = run_one(tiny_spec(SystemKind::kCcNuma, "migratory"));
  const double norm = sys.normalized_to(base);
  EXPECT_GE(norm, 1.0);
  EXPECT_LT(norm, 10.0);
}

TEST(Harness, PaperSpecDefaults) {
  RunSpec s = paper_spec(SystemKind::kRNuma, "lu");
  EXPECT_EQ(s.system.nodes, 8u);
  EXPECT_EQ(s.system.kind, SystemKind::kRNuma);
  EXPECT_EQ(s.workload, "lu");
}

// ---------------------------------------------------------------------------
// validate(): a configuration either runs or is refused with a message
// that names the flag setting the offending field.
// ---------------------------------------------------------------------------

SystemConfig machine(FabricKind fabric, std::uint32_t nodes) {
  SystemConfig cfg = SystemConfig::base(SystemKind::kCcNuma);
  cfg.fabric = fabric;
  cfg.nodes = nodes;
  return cfg;
}

// The error names `flag`; an empty error fails.
void expect_refused(const SystemConfig& cfg, const std::string& flag) {
  const std::string err = validate(cfg);
  EXPECT_NE(err.find(flag), std::string::npos) << "error: '" << err << "'";
}

TEST(Validate, AcceptsRunnableConfigurations) {
  for (SystemKind k : {SystemKind::kCcNuma, SystemKind::kCcNumaMigRep,
                       SystemKind::kRNuma, SystemKind::kRNumaMigRep})
    EXPECT_EQ(validate(paper_spec(k, "lu").system), "");
  SystemConfig torus = machine(FabricKind::kTorus2d, 8);
  torus.faults.node_link_downs.push_back({0, 4, 100, 5000});
  torus.faults.node_link_downs.push_back({0, 3, 100, 5000});  // wrap link
  torus.faults.node_downs.push_back({7, 100, 5000});
  torus.faults.seed = 1;
  torus.faults.rand_link_downs = 4;
  EXPECT_EQ(validate(torus), "");
  SystemConfig wide = machine(FabricKind::kMesh2d, 1024);
  wide.dir_scheme = DirScheme::kCoarse;
  EXPECT_EQ(validate(wide), "");
}

TEST(Validate, FullMapDirectoryHoldsAtMost64Nodes) {
  SystemConfig cfg = machine(FabricKind::kNiConstant, 64);
  cfg.dir_scheme = DirScheme::kFullMap;
  EXPECT_EQ(validate(cfg), "");
  cfg.nodes = 128;
  expect_refused(cfg, "--dir-scheme full");
}

TEST(Validate, NodeCountFitsThePageTable) {
  SystemConfig cfg = machine(FabricKind::kNiConstant, 1024);
  EXPECT_EQ(validate(cfg), "");
  cfg.nodes = 1025;
  expect_refused(cfg, "--nodes");
  cfg.nodes = 2048;
  cfg.fabric = FabricKind::kMesh2d;
  expect_refused(cfg, "--nodes");
}

TEST(Validate, NodeDownMustNameANode) {
  SystemConfig cfg = machine(FabricKind::kNiConstant, 8);
  cfg.faults.node_downs.push_back({9, 100, 5100});
  expect_refused(cfg, "--fault-node-down");
}

TEST(Validate, LinkDownEndpointsMustNameNodes) {
  SystemConfig cfg = machine(FabricKind::kMesh2d, 8);
  cfg.faults.node_link_downs.push_back({0, 99, 100, 5000});
  expect_refused(cfg, "--fault-link-down 0:99");
}

TEST(Validate, LinkDownEndpointsMustBeGridNeighbours) {
  SystemConfig mesh = machine(FabricKind::kMesh2d, 8);  // 4x2
  mesh.faults.node_link_downs.push_back({0, 5, 100, 5000});
  expect_refused(mesh, "--fault-link-down 0:5");
  // 0 and 3 meet only across the torus wrap.
  mesh.faults.node_link_downs = {{0, 3, 100, 5000}};
  expect_refused(mesh, "--fault-link-down 0:3");
  SystemConfig torus = mesh;
  torus.fabric = FabricKind::kTorus2d;
  EXPECT_EQ(validate(torus), "");
}

// The router+direction outage form has no flag; a hand-built one off
// the grid is refused instead of reaching the fault plan's assert.
TEST(Validate, RouterLinkDownsStayOnTheGrid) {
  SystemConfig cfg = machine(FabricKind::kMesh2d, 8);  // 4x2
  cfg.faults.link_downs = {{7, 3, 100, 5000}};
  EXPECT_EQ(validate(cfg), "");
  cfg.faults.link_downs = {{99, 0, 100, 5000}};
  expect_refused(cfg, "router 99");
  cfg.faults.link_downs = {{8, 0, 100, 5000}};
  expect_refused(cfg, "router 8");
  cfg.faults.link_downs = {{0, 4, 100, 5000}};
  expect_refused(cfg, "direction 4");
}

TEST(Validate, LinkOutagesNeedARoutedFabric) {
  SystemConfig pair = machine(FabricKind::kNiConstant, 8);
  pair.faults.node_link_downs.push_back({0, 1, 100, 5000});
  expect_refused(pair, "--fault-link-down");
  SystemConfig seeded = machine(FabricKind::kNiConstant, 8);
  seeded.faults.seed = 1;
  seeded.faults.rand_link_downs = 4;
  expect_refused(seeded, "--fault-link-downs");
  pair.fabric = FabricKind::kMesh2d;
  seeded.fabric = FabricKind::kMesh2d;
  EXPECT_EQ(validate(pair), "");
  EXPECT_EQ(validate(seeded), "");
}

TEST(Validate, FaultRatesSumToAtMost100) {
  SystemConfig cfg = machine(FabricKind::kNiConstant, 8);
  cfg.faults.seed = 1;
  cfg.faults.drop_pct = 60;
  cfg.faults.dup_pct = 40;
  EXPECT_EQ(validate(cfg), "");
  cfg.faults.delay_pct = 1;
  expect_refused(cfg, "--fault-delay-pct");
}

TEST(Validate, CrashWindowsAreNotEmpty) {
  SystemConfig cfg = machine(FabricKind::kNiConstant, 8);
  cfg.faults.node_downs.push_back({1, 100, 101});
  EXPECT_EQ(validate(cfg), "");
  cfg.faults.node_downs.push_back({2, 100, 100});
  expect_refused(cfg, "--fault-node-down 2@100");
  SystemConfig seeded = machine(FabricKind::kNiConstant, 8);
  seeded.faults.seed = 1;
  seeded.faults.rand_node_downs = 2;
  EXPECT_EQ(validate(seeded), "");
  seeded.faults.rand_node_down_len = 0;
  expect_refused(seeded, "--fault-node-downs");
}

TEST(Validate, LinkOutageWindowsAreNotEmptyAndDoNotWrap) {
  SystemConfig cfg = machine(FabricKind::kMesh2d, 8);
  cfg.faults.node_link_downs = {{0, 1, kNeverCycle - 1, 1}};
  EXPECT_EQ(validate(cfg), "");
  cfg.faults.node_link_downs = {{0, 1, 100, 0}};
  expect_refused(cfg, "--fault-link-down 0:1");
  cfg.faults.node_link_downs = {{0, 1, kNeverCycle - 1, 2}};
  expect_refused(cfg, "--fault-link-down 0:1");
}

TEST(Validate, MeshWidthDividesTheNodeCount) {
  SystemConfig cfg = machine(FabricKind::kMesh2d, 8);
  cfg.mesh_width = 3;
  expect_refused(cfg, "mesh width 3");
}

}  // namespace
}  // namespace dsm
