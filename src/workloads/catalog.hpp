// Workload catalog: construct any workload by name at one of three input
// scales. `kPaper` matches Table 2 of the paper; `kDefault` is reduced
// so the full bench suite completes in minutes while preserving each
// application's sharing pattern and cache-pressure regime (L1s and
// block caches are unchanged, so working sets still overflow them);
// `kTiny` is a seconds-long smoke run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.hpp"

namespace dsm {

enum class Scale { kTiny, kDefault, kPaper };

// The seven SPLASH-2 applications from Table 2.
const std::vector<std::string>& paper_apps();
// Those plus the synthetic sharing-pattern micro-workloads.
const std::vector<std::string>& all_workloads();

// Human-readable input description for Table 2 output, written from the
// parameters make_workload() builds the workload with.
std::string workload_input_description(const std::string& name, Scale scale);

std::unique_ptr<Workload> make_workload(const std::string& name, Scale scale);

}  // namespace dsm
