// Decision-parity regression for the policy-event-layer refactor.
//
// The golden numbers below were produced by the pre-refactor simulator
// (MigRep/R-NUMA as direct HomePolicy/CachePolicy hooks with counters
// in PageInfo, commit 5fa36ae) for every SystemKind on two paper_spec
// workloads. The event-stream re-expression must be *decision-
// identical*: same migrations/replications/relocations, same per-class
// byte totals, and — since decisions at identical cycles imply
// identical timing — the same execution cycle count.
//
// Each golden also pins digest(Stats), a hash of every counter of every
// node, so a run that keeps these seven numbers but moves any other
// counter fails too. A failing digest check prints the new digest in
// hex; replace a digest only for an intended change, and say which
// counters moved.
//
// The kAdaptive rows pin the adaptive rule the same way. They were
// captured from the tree in which each rule was still a Policy subclass
// (commit e15eaf1), before the rules were folded into one PolicyEngine.
// They cover replication (R-NUMA raytrace), migration (R-NUMA radix),
// relocation (R-NUMA lu) and the stuck-ledger halving on a substrate
// without a page cache (CC-NUMA lu, 1675 suppressed triggers).
//
// If an intentional policy change ever breaks these numbers, regenerate
// them with a before/after pair of runs and say so in the commit.
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "harness/runner.hpp"

namespace dsm {
namespace {

struct Golden {
  SystemKind kind;
  const char* app;
  std::uint64_t data_bytes;
  std::uint64_t control_bytes;
  std::uint64_t pageop_bytes;
  std::uint64_t migrations;
  std::uint64_t replications;
  std::uint64_t relocations;
  Cycle cycles;
  std::uint64_t digest;  // digest(Stats): every counter of every node
  PolicyKind policy = PolicyKind::kDefault;
};

// Captured from the pre-refactor tree (see header comment), Release
// build, Scale::kDefault. Regenerated when the remote-fetch/page-op
// race fix landed (fetches that observe a concurrent re-homing or
// remapping now restart instead of completing against the stale
// mapping): every migration/replication/relocation count is unchanged;
// only the page-op-enabled rows moved, by under 0.3% in bytes/cycles.
const Golden kGolden[] = {
    {SystemKind::kCcNuma, "raytrace", 5911520ull, 1743408ull, 0ull, 0ull,
     0ull, 0ull, 36811152ull, 0x682ec87aa65dc2f9ull},
    {SystemKind::kPerfectCcNuma, "raytrace", 375120ull, 76080ull, 0ull, 0ull,
     0ull, 0ull, 20832124ull, 0x3e6232b204aae3bbull},
    {SystemKind::kCcNumaRep, "raytrace", 2041440ull, 571520ull, 49344ull,
     0ull, 12ull, 0ull, 25321762ull, 0xa9660b6f226839b1ull},
    {SystemKind::kCcNumaMig, "raytrace", 2871600ull, 897136ull, 28784ull,
     7ull, 0ull, 0ull, 27124227ull, 0xa18a746642dc66e7ull},
    {SystemKind::kCcNumaMigRep, "raytrace", 2041440ull, 571520ull, 49344ull,
     0ull, 12ull, 0ull, 25321762ull, 0xa9660b6f226839b1ull},
    {SystemKind::kRNuma, "raytrace", 660560ull, 144112ull, 0ull, 0ull, 0ull,
     42ull, 21339930ull, 0x7bd6de07ed8e0cecull},
    {SystemKind::kRNumaInf, "raytrace", 660560ull, 144112ull, 0ull, 0ull,
     0ull, 42ull, 21339930ull, 0x7bd6de07ed8e0cecull},
    {SystemKind::kRNumaMigRep, "raytrace", 2041440ull, 571520ull, 49344ull,
     0ull, 12ull, 0ull, 25321762ull, 0x8d24082670704bccull},
    {SystemKind::kCcNuma, "radix", 66968400ull, 8635904ull, 0ull, 0ull, 0ull,
     0ull, 132443491ull, 0xb654cd38f29b6d31ull},
    {SystemKind::kPerfectCcNuma, "radix", 14098400ull, 2991712ull, 0ull, 0ull,
     0ull, 0ull, 51450028ull, 0xb724d81edb683a9bull},
    {SystemKind::kCcNumaRep, "radix", 66968400ull, 8635904ull, 0ull, 0ull,
     0ull, 0ull, 132443491ull, 0x6e97a94976f1d026ull},
    {SystemKind::kCcNumaMig, "radix", 64309680ull, 7811328ull, 168592ull,
     41ull, 0ull, 0ull, 125607277ull, 0x4831a0ede61022c7ull},
    {SystemKind::kCcNumaMigRep, "radix", 64309680ull, 7811328ull, 168592ull,
     41ull, 0ull, 0ull, 125607277ull, 0x4831a0ede61022c7ull},
    {SystemKind::kRNuma, "radix", 32138160ull, 4618912ull, 0ull, 0ull, 0ull,
     2868ull, 83910551ull, 0xdc7d7a3f69d7326full},
    {SystemKind::kRNumaInf, "radix", 32138160ull, 4618912ull, 0ull, 0ull,
     0ull, 2868ull, 83910551ull, 0xdc7d7a3f69d7326full},
    {SystemKind::kRNumaMigRep, "radix", 64309680ull, 7811328ull, 168592ull,
     41ull, 0ull, 0ull, 125607277ull, 0x16b717205db219adull},
    {SystemKind::kRNuma, "raytrace", 1486480ull, 383904ull, 53456ull, 0ull,
     13ull, 0ull, 23432806ull, 0x8c1c62fd62f95786ull, PolicyKind::kAdaptive},
    {SystemKind::kRNuma, "radix", 63981360ull, 7414432ull, 49344ull, 12ull,
     0ull, 0ull, 121241318ull, 0x79a290dd5e7433f5ull, PolicyKind::kAdaptive},
    {SystemKind::kRNuma, "lu", 18020000ull, 3654496ull, 49344ull, 0ull, 12ull,
     224ull, 79623755ull, 0xf9681b903c1ae956ull, PolicyKind::kAdaptive},
    {SystemKind::kCcNuma, "lu", 53705840ull, 10800960ull, 61680ull, 3ull,
     12ull, 0ull, 144640829ull, 0xd3a68ac44ef44419ull, PolicyKind::kAdaptive},
};

class PolicyParity : public ::testing::TestWithParam<Golden> {};

TEST_P(PolicyParity, MatchesPreRefactorDecisions) {
  const Golden& g = GetParam();
  RunSpec spec = paper_spec(g.kind, g.app, Scale::kDefault);
  spec.system.policy = g.policy;
  const RunResult r = run_one(spec);
  const TrafficBreakdown t = r.stats.traffic_total();
  EXPECT_EQ(t.bytes_of(TrafficClass::kData), g.data_bytes);
  EXPECT_EQ(t.bytes_of(TrafficClass::kControl), g.control_bytes);
  EXPECT_EQ(t.bytes_of(TrafficClass::kPageOp), g.pageop_bytes);
  EXPECT_EQ(r.stats.page_migrations_total(), g.migrations);
  EXPECT_EQ(r.stats.page_replications_total(), g.replications);
  EXPECT_EQ(r.stats.page_relocations_total(), g.relocations);
  EXPECT_EQ(r.cycles, g.cycles);
  EXPECT_EQ(digest(r.stats), g.digest) << std::hex << digest(r.stats);
}

std::string param_name(const ::testing::TestParamInfo<Golden>& info) {
  std::string s = std::string(to_string(info.param.kind)) + "_" +
                  info.param.app;
  if (info.param.policy != PolicyKind::kDefault)
    s += std::string("_") + to_string(info.param.policy);
  for (char& c : s)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PolicyParity, ::testing::ValuesIn(kGolden),
                         param_name);

}  // namespace
}  // namespace dsm
