#include "protocols/system_factory.hpp"

#include "protocols/adaptive_policy.hpp"
#include "protocols/migrep_policy.hpp"
#include "protocols/policy_engine.hpp"
#include "protocols/rnuma_policy.hpp"

namespace dsm {

namespace {

// The paper's pairing: which engines each SystemKind runs by default.
void attach_default(DsmSystem& sys, PolicyEngine& eng, SystemKind kind) {
  switch (kind) {
    case SystemKind::kCcNuma:
    case SystemKind::kPerfectCcNuma:
      break;
    case SystemKind::kCcNumaRep:
      eng.add_policy(std::make_unique<MigRepPolicy>(
          sys, /*enable_migration=*/false, /*enable_replication=*/true));
      break;
    case SystemKind::kCcNumaMig:
      eng.add_policy(std::make_unique<MigRepPolicy>(
          sys, /*enable_migration=*/true, /*enable_replication=*/false));
      break;
    case SystemKind::kCcNumaMigRep:
      eng.add_policy(std::make_unique<MigRepPolicy>(
          sys, /*enable_migration=*/true, /*enable_replication=*/true));
      break;
    case SystemKind::kRNuma:
    case SystemKind::kRNumaInf:
      eng.add_policy(std::make_unique<RNumaPolicy>(sys));
      break;
    case SystemKind::kRNumaMigRep:
      eng.add_policy(std::make_unique<MigRepPolicy>(
          sys, /*enable_migration=*/true, /*enable_replication=*/true));
      eng.add_policy(std::make_unique<RNumaPolicy>(sys));
      break;
  }
}

}  // namespace

std::unique_ptr<DsmSystem> make_system(const SystemConfig& cfg, Stats* stats) {
  auto sys = std::make_unique<DsmSystem>(cfg, stats);
  PolicyEngine& eng = sys->policy_engine();
  switch (cfg.policy) {
    case PolicyKind::kDefault:
      attach_default(*sys, eng, cfg.kind);
      break;
    case PolicyKind::kAdaptive:
      eng.add_policy(std::make_unique<AdaptivePolicy>(*sys));
      break;
  }
  return sys;
}

}  // namespace dsm
