// Shared scaffolding for the per-table/per-figure bench binaries.
//
// Every binary accepts `--paper` to run the paper's Table-2 input sizes
// (defaults are reduced; see workloads/catalog.*), `--apps a,b,c` to
// restrict the application list, and `--jobs N` to run the sweep's
// independent simulation configs on N pool workers (0 = one per
// hardware thread, 1 = serial). Per-run results are bit-identical at
// every job count; only wall-clock changes.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.hpp"
#include "harness/parallel.hpp"
#include "harness/runner.hpp"
#include "net/message.hpp"

namespace dsm::bench {

// Exit 2 naming `flag`, its value `arg` and what it expects.
[[noreturn]] inline void bad_value(const char* flag, std::string_view arg,
                                   const char* expected) {
  std::fprintf(stderr, "bad %s '%.*s' (expected %s)\n", flag, int(arg.size()),
               arg.data(), expected);
  std::exit(2);
}

// The one parser for numeric flag values, and for each numeric field
// of one: decimal digits only (no sign or space), no overflow, and
// within [lo, hi]. Anything else exits 2 naming the flag.
inline std::uint64_t parse_uint(const char* flag, std::string_view arg,
                                std::uint64_t lo, std::uint64_t hi,
                                const char* expected) {
  std::uint64_t v = 0;
  for (const char c : arg) {
    const std::uint64_t digit = std::uint64_t(c - '0');
    if (c < '0' || c > '9' || digit > hi || v > (hi - digit) / 10)
      bad_value(flag, arg, expected);
    v = v * 10 + digit;
  }
  if (arg.empty() || v < lo) bad_value(flag, arg, expected);
  return v;
}

// `list` split at every comma, empty items kept (so callers reject them).
inline std::vector<std::string> split_list(std::string_view list) {
  std::vector<std::string> items;
  for (std::size_t comma; (comma = list.find(',')) != list.npos;
       list.remove_prefix(comma + 1))
    items.emplace_back(list.substr(0, comma));
  items.emplace_back(list);
  return items;
}

// Cycle-valued flag fields stay below 2^40, so a window end (down + N),
// a delayed delivery (t + delay) and the largest retry backoff
// (base << 16) cannot wrap.
inline constexpr Cycle kMaxFlagCycle = Cycle(1) << 40;

struct Options {
  static constexpr std::uint32_t kLinkBwUnset = ~std::uint32_t(0);

  Scale scale = Scale::kDefault;
  std::vector<std::string> apps = paper_apps();
  FabricKind fabric = FabricKind::kNiConstant;
  // Mesh/torus link bandwidth override (bytes/cycle; 0 = NI-only wire
  // model); kLinkBwUnset keeps the TimingConfig default.
  std::uint32_t link_bw = kLinkBwUnset;
  std::string json_path;  // --json FILE: machine-readable per-class bytes
  // Decision engine (--policy default|adaptive): kDefault keeps the
  // paper's SystemKind pairing, kAdaptive replaces it.
  PolicyKind policy = PolicyKind::kDefault;
  // Competitive constant override for the adaptive engine (--adaptive-k
  // N; 0 keeps the TimingConfig default).
  std::uint32_t adaptive_k = 0;
  // Sweep-harness worker count (--jobs N; 0 = hardware concurrency,
  // 1 = serial).
  unsigned jobs = 0;
  // Fault injection (--fault-seed N enables; --fault-drop-pct P,
  // --fault-dup-pct P, --fault-delay-pct P, --fault-delay-cycles C,
  // --fault-link-downs K and --fault-kinds shape the seeded draws and
  // need --fault-seed;
  // --fault-retry-base C, --fault-retry-max A tune recovery;
  // --fault-link-down a:b@cycle+N downs the link the route from a to
  // neighbour b takes, and works without a seed). Whole-node crashes:
  // --fault-node-down n@cycle[+N] schedules node n to crash at `cycle`
  // for N cycles (omitting +N makes the crash permanent) and works
  // without a seed; --fault-node-downs K draws K seeded crash windows
  // and needs --fault-seed.
  // --fault-kinds data,ack,... restricts seeded perturbations to the
  // listed message kinds (draws are still consumed for every kind, so
  // narrowing the mask never shifts the surviving kinds' outcomes).
  // Faults off (the default) is bit-identical to a build without the
  // fault layer.
  std::uint64_t fault_seed = 0;
  bool fault_seed_set = false;
  double fault_drop_pct = 1.0;
  double fault_dup_pct = 0.0;
  double fault_delay_pct = 0.0;
  Cycle fault_delay_cycles = 0;  // 0 = keep FaultConfig default
  std::uint32_t fault_link_downs = 0;
  std::vector<FaultConfig::NodeLinkDown> fault_node_link_downs;
  std::uint32_t fault_rand_node_downs = 0;
  std::vector<FaultConfig::NodeDown> fault_node_downs;
  std::uint32_t fault_kinds = ~0u;  // bit per MsgKind; default = all
  Cycle fault_retry_base = 0;      // 0 = keep TimingConfig default
  std::uint32_t fault_retry_max = 0;  // 0 = keep TimingConfig default
  // Machine shape (--nodes N, --cpus-per-node N; 0 keeps the
  // SystemConfig defaults) and directory sharer-set representation
  // (--dir-scheme full|limited|coarse|auto; auto resolves to the exact
  // full map whenever the machine fits in 64 nodes).
  std::uint32_t nodes = 0;
  std::uint32_t cpus_per_node = 0;
  DirScheme dir_scheme = DirScheme::kAuto;
  // The worker count actually used (what the throughput fields were
  // measured under — per-run wall time includes contention from
  // sibling workers, so jobs context is part of the measurement).
  unsigned resolved_jobs() const {
    return jobs == 0 ? hardware_jobs() : jobs;
  }

  // Apply the fabric/policy selection to one run's system config.
  void apply(SystemConfig& sc) const {
    sc.fabric = fabric;
    if (link_bw != kLinkBwUnset)
      sc.timing.mesh_link_bytes_per_cycle = link_bw;
    sc.policy = policy;
    if (adaptive_k != 0) sc.timing.adaptive_k = adaptive_k;
    if (fault_seed_set) {
      sc.faults.seed = fault_seed;
      sc.faults.drop_pct = fault_drop_pct;
      sc.faults.dup_pct = fault_dup_pct;
      sc.faults.delay_pct = fault_delay_pct;
      if (fault_delay_cycles != 0) sc.faults.delay_cycles = fault_delay_cycles;
      sc.faults.rand_link_downs = fault_link_downs;
      sc.faults.rand_node_downs = fault_rand_node_downs;
    }
    // Explicit node-pair outages and node crashes are deterministic
    // schedules, not seeded draws — they enable the fault layer on
    // their own.
    if (!fault_node_link_downs.empty())
      sc.faults.node_link_downs = fault_node_link_downs;
    if (!fault_node_downs.empty()) sc.faults.node_downs = fault_node_downs;
    sc.faults.fault_kinds = fault_kinds;
    if (fault_retry_base != 0) sc.timing.fault_retry_base = fault_retry_base;
    if (fault_retry_max != 0)
      sc.timing.fault_retry_max_attempts = fault_retry_max;
    if (nodes != 0) sc.nodes = nodes;
    if (cpus_per_node != 0) sc.cpus_per_node = cpus_per_node;
    sc.dir_scheme = dir_scheme;
  }
  // The paper's spec for (kind, app) at the selected scale, with every
  // system flag applied.
  RunSpec spec(SystemKind kind, const std::string& app) const {
    RunSpec s = paper_spec(kind, app, scale);
    apply(s.system);
    return s;
  }
  bool routed_fabric() const { return fabric != FabricKind::kNiConstant; }
};

// Every flag that shapes a run's SystemConfig (machine size, fabric,
// directory scheme, policy engine, fault plan) is owned by this one
// parser, shared by all bench binaries through parse(). Adding a system
// knob here makes it available to every sweep at once; the binaries
// keep only their harness flags (--paper/--tiny/--apps/--jobs/--json).
class SystemFlagParser {
 public:
  explicit SystemFlagParser(Options& o) : o_(&o) {}

  // Consume argv[i] (and its value operand, advancing i past it) when
  // the flag is one of the SystemConfig-shaping flags. Returns false —
  // leaving i untouched — for flags it does not own. A recognized flag
  // whose value operand is missing is left unconsumed, matching the
  // historic parser.
  bool consume(int argc, char** argv, int& i) {
    if (i + 1 >= argc) return false;
    const char* flag = argv[i];
    const char* arg = argv[i + 1];
    if (std::strcmp(flag, "--fabric") == 0) {
      if (std::strcmp(arg, "mesh") == 0 || std::strcmp(arg, "mesh-2d") == 0) {
        o_->fabric = FabricKind::kMesh2d;
      } else if (std::strcmp(arg, "torus") == 0 ||
                 std::strcmp(arg, "torus-2d") == 0) {
        o_->fabric = FabricKind::kTorus2d;
      } else if (std::strcmp(arg, "ni") == 0 ||
                 std::strcmp(arg, "ni-constant") == 0) {
        o_->fabric = FabricKind::kNiConstant;
      } else {
        bad_value(flag, arg, "mesh|torus|ni");
      }
    } else if (std::strcmp(flag, "--nodes") == 0) {
      o_->nodes = std::uint32_t(
          parse_uint(flag, arg, 1, 1u << 16, "a node count"));
    } else if (std::strcmp(flag, "--cpus-per-node") == 0) {
      o_->cpus_per_node = std::uint32_t(
          parse_uint(flag, arg, 1, 1u << 10, "a per-node cpu count"));
    } else if (std::strcmp(flag, "--dir-scheme") == 0) {
      if (std::strcmp(arg, "full") == 0 || std::strcmp(arg, "full-map") == 0) {
        o_->dir_scheme = DirScheme::kFullMap;
      } else if (std::strcmp(arg, "limited") == 0 ||
                 std::strcmp(arg, "limited-ptr") == 0) {
        o_->dir_scheme = DirScheme::kLimitedPtr;
      } else if (std::strcmp(arg, "coarse") == 0 ||
                 std::strcmp(arg, "coarse-vector") == 0) {
        o_->dir_scheme = DirScheme::kCoarse;
      } else if (std::strcmp(arg, "auto") == 0) {
        o_->dir_scheme = DirScheme::kAuto;
      } else {
        bad_value(flag, arg, "full|limited|coarse|auto");
      }
    } else if (std::strcmp(flag, "--link-bw") == 0) {
      o_->link_bw = std::uint32_t(
          parse_uint(flag, arg, 0, Options::kLinkBwUnset - 1,
                     "bytes/cycle; 0 disables link contention"));
    } else if (std::strcmp(flag, "--policy") == 0) {
      if (std::strcmp(arg, "default") == 0) {
        o_->policy = PolicyKind::kDefault;
      } else if (std::strcmp(arg, "adaptive") == 0) {
        o_->policy = PolicyKind::kAdaptive;
      } else {
        bad_value(flag, arg, "default|adaptive");
      }
    } else if (std::strcmp(flag, "--adaptive-k") == 0) {
      o_->adaptive_k = std::uint32_t(parse_uint(
          flag, arg, 1, 1u << 20, "a positive competitive constant"));
    } else if (std::strcmp(flag, "--fault-seed") == 0) {
      o_->fault_seed = parse_uint(flag, arg, 0, ~std::uint64_t(0), "a seed");
      o_->fault_seed_set = true;
    } else if (std::strcmp(flag, "--fault-drop-pct") == 0) {
      o_->fault_drop_pct = parse_pct(flag, arg);
      seeded_flag_ = flag;
    } else if (std::strcmp(flag, "--fault-dup-pct") == 0) {
      o_->fault_dup_pct = parse_pct(flag, arg);
      seeded_flag_ = flag;
    } else if (std::strcmp(flag, "--fault-delay-pct") == 0) {
      o_->fault_delay_pct = parse_pct(flag, arg);
      seeded_flag_ = flag;
    } else if (std::strcmp(flag, "--fault-delay-cycles") == 0) {
      o_->fault_delay_cycles =
          parse_uint(flag, arg, 1, kMaxFlagCycle, "extra cycles, 1..2^40");
      seeded_flag_ = flag;
    } else if (std::strcmp(flag, "--fault-link-down") == 0) {
      o_->fault_node_link_downs.push_back(parse_link_down(flag, arg));
    } else if (std::strcmp(flag, "--fault-link-downs") == 0) {
      o_->fault_link_downs = std::uint32_t(
          parse_uint(flag, arg, 0, 1u << 16, "an outage count"));
      seeded_flag_ = flag;
    } else if (std::strcmp(flag, "--fault-node-down") == 0) {
      o_->fault_node_downs.push_back(parse_node_down(flag, arg));
    } else if (std::strcmp(flag, "--fault-node-downs") == 0) {
      o_->fault_rand_node_downs = std::uint32_t(
          parse_uint(flag, arg, 0, 1u << 16, "a crash count"));
      seeded_flag_ = flag;
    } else if (std::strcmp(flag, "--fault-kinds") == 0) {
      o_->fault_kinds = parse_kinds(flag, arg);
      seeded_flag_ = flag;
    } else if (std::strcmp(flag, "--fault-retry-base") == 0) {
      o_->fault_retry_base =
          parse_uint(flag, arg, 1, kMaxFlagCycle, "cycles, 1..2^40");
    } else if (std::strcmp(flag, "--fault-retry-max") == 0) {
      o_->fault_retry_max =
          std::uint32_t(parse_uint(flag, arg, 1, 64, "1..64 attempts"));
    } else {
      return false;
    }
    ++i;  // the value operand was consumed
    return true;
  }

  // The last flag consumed that only shapes the seeded fault draws, or
  // null. Options::apply reads those flags only under --fault-seed, so
  // parse() rejects them without one.
  const char* seeded_flag() const { return seeded_flag_; }

 private:
  static double parse_pct(const char* flag, const char* arg) {
    char* end = nullptr;
    const double v = std::strtod(arg, &end);
    if (*arg < '0' || *arg > '9' || *end != '\0' || !(v >= 0.0 && v <= 100.0))
      bad_value(flag, arg, "0..100");
    return v;
  }

  // `arg` split at each of `seps` in turn; empty when one is missing.
  static std::vector<std::string_view> fields(std::string_view arg,
                                              std::string_view seps) {
    std::vector<std::string_view> out;
    for (const char sep : seps) {
      const std::size_t at = arg.find(sep);
      if (at == arg.npos) return {};
      out.push_back(arg.substr(0, at));
      arg.remove_prefix(at + 1);
    }
    out.push_back(arg);
    return out;
  }

  // --fault-link-down a:b@cycle+N — the directed link the route from
  // node a to neighbour b takes goes down at `cycle` for N cycles.
  static FaultConfig::NodeLinkDown parse_link_down(const char* flag,
                                                   const char* arg) {
    static constexpr const char* kForm =
        "a:b@cycle+N: nodes a != b, cycle < 2^40, N in 1..2^40";
    const std::vector<std::string_view> f = fields(arg, ":@+");
    if (f.empty()) bad_value(flag, arg, kForm);
    FaultConfig::NodeLinkDown nd;
    nd.a = std::uint32_t(parse_uint(flag, f[0], 0, 0xffff, kForm));
    nd.b = std::uint32_t(parse_uint(flag, f[1], 0, 0xffff, kForm));
    nd.down = parse_uint(flag, f[2], 0, kMaxFlagCycle - 1, kForm);
    nd.len = parse_uint(flag, f[3], 1, kMaxFlagCycle, kForm);
    if (nd.a == nd.b) bad_value(flag, arg, kForm);
    return nd;
  }

  // --fault-node-down n@cycle[+N] — node n crashes at `cycle`; with +N
  // it recovers N cycles later, without it the crash is permanent.
  static FaultConfig::NodeDown parse_node_down(const char* flag,
                                               const char* arg) {
    static constexpr const char* kForm =
        "n@cycle[+N]: cycle < 2^40, N in 1..2^40";
    const bool windowed = std::strchr(arg, '+') != nullptr;
    const std::vector<std::string_view> f = fields(arg, windowed ? "@+" : "@");
    if (f.empty()) bad_value(flag, arg, kForm);
    FaultConfig::NodeDown nd;
    nd.node = std::uint32_t(parse_uint(flag, f[0], 0, 0xffff, kForm));
    nd.down = parse_uint(flag, f[1], 0, kMaxFlagCycle - 1, kForm);
    if (windowed)
      nd.up = nd.down + parse_uint(flag, f[2], 1, kMaxFlagCycle, kForm);
    return nd;
  }

  // --fault-kinds data,ack,... — comma-separated message-kind names;
  // seeded perturbations apply only to the listed kinds.
  static std::uint32_t parse_kinds(const char* flag, const char* arg) {
    static constexpr const char* kNames[] = {
        "gets", "getx", "upgrade", "inval",   "ack",    "data",
        "writeback", "hint", "pagebulk", "nack", "rebuild"};
    static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                  std::size_t(MsgKind::kCount));
    std::uint32_t mask = 0;
    for (const std::string& name : split_list(arg)) {
      const auto* k = std::find(std::begin(kNames), std::end(kNames), name);
      if (k == std::end(kNames))
        bad_value(flag, arg,
                  "a comma list of gets|getx|upgrade|inval|ack|data|"
                  "writeback|hint|pagebulk|nack|rebuild");
      mask |= 1u << (k - std::begin(kNames));
    }
    return mask;
  }

  Options* o_;
  const char* seeded_flag_ = nullptr;
};

// A flag that one binary reads itself; parse() accepts and skips it.
struct OwnFlag {
  const char* name;
  bool takes_value;
};

// Parse the shared harness flags plus every SystemFlagParser flag. An
// unknown flag, a known one missing its value, or a seeded-fault flag
// without --fault-seed exits 2 with a message: no flag is silently
// ignored.
inline Options parse(int argc, char** argv,
                     std::initializer_list<OwnFlag> own = {}) {
  Options o;
  SystemFlagParser sys(o);
  for (int i = 1; i < argc; ++i) {
    if (sys.consume(argc, argv, i)) continue;
    const char* flag = argv[i];
    const bool has_value = i + 1 < argc;
    const OwnFlag* own_flag = nullptr;
    for (const OwnFlag& f : own)
      if (std::strcmp(flag, f.name) == 0) own_flag = &f;
    if (std::strcmp(flag, "--paper") == 0) {
      o.scale = Scale::kPaper;
    } else if (std::strcmp(flag, "--tiny") == 0) {
      o.scale = Scale::kTiny;
    } else if (std::strcmp(flag, "--json") == 0 && has_value) {
      o.json_path = argv[++i];
    } else if (std::strcmp(flag, "--jobs") == 0 && has_value) {
      o.jobs = unsigned(parse_uint(
          flag, argv[++i], 0, 4096,
          "a worker count, 0..4096; 0 = one per hardware thread"));
    } else if (std::strcmp(flag, "--apps") == 0 && has_value) {
      o.apps = split_list(argv[++i]);
      const std::vector<std::string>& known = all_workloads();
      for (const std::string& app : o.apps) {
        if (std::count(known.begin(), known.end(), app) != 0) continue;
        std::string names;
        for (const std::string& w : known)
          names += (names.empty() ? "" : "|") + w;
        bad_value(flag, app, ("a comma list of " + names).c_str());
      }
    } else if (own_flag != nullptr && (!own_flag->takes_value || has_value)) {
      if (own_flag->takes_value) ++i;
    } else {
      std::fprintf(stderr, "%s: unknown flag or missing value: '%s'\n",
                   argv[0], flag);
      std::exit(2);
    }
  }
  if (sys.seeded_flag() != nullptr && !o.fault_seed_set) {
    std::fprintf(stderr,
                 "%s: %s shapes the seeded fault plan and needs "
                 "--fault-seed N\n",
                 argv[0], sys.seeded_flag());
    std::exit(2);
  }
  return o;
}

// The flags on the command line of a fixed experiment, which takes
// only `allowed` (each with a value): any other flag exits 2 instead of
// having no effect on its cells. A sweep pins an axis whose flag was
// given.
inline std::vector<std::string_view> only_flags(
    int argc, char** argv, std::initializer_list<std::string_view> allowed) {
  std::vector<std::string_view> given;
  for (int i = 1; i < argc; i += 2) {
    if (std::find(allowed.begin(), allowed.end(), argv[i]) == allowed.end()) {
      std::string list;
      for (const std::string_view a : allowed)
        list += std::string(list.empty() ? "" : " ") + std::string(a);
      std::fprintf(stderr,
                   "%s: '%s' does not change this experiment's cells; it "
                   "takes %s%s\n",
                   argv[0], argv[i], list.empty() ? "no flags" : "only ",
                   list.c_str());
      std::exit(2);
    }
    given.push_back(argv[i]);
  }
  return given;
}

// Exit 2 with validate()'s message when `cfg` cannot run.
inline void require_valid(const SystemConfig& cfg) {
  const std::string invalid = validate(cfg);
  if (invalid.empty()) return;
  std::fprintf(stderr, "invalid configuration: %s\n", invalid.c_str());
  std::exit(2);
}

// Exit 2 when --link-bw was given but no cell of the run is routed:
// ni-constant has no links, so the flag would change nothing.
inline void require_link_bw_routed(const Options& opt, bool any_routed) {
  if (opt.link_bw == Options::kLinkBwUnset || any_routed) return;
  std::fprintf(stderr,
               "--link-bw %u reaches no cell: every cell runs on ni-constant, "
               "which has no links (add --fabric mesh|torus)\n",
               opt.link_bw);
  std::exit(2);
}

// run_matrix over `specs` on opt.jobs workers, after checking that every
// one can run and that a given --link-bw reaches one of them.
inline std::vector<RunResult> run_valid(const std::vector<RunSpec>& specs,
                                        const Options& opt) {
  bool any_routed = false;
  for (const RunSpec& s : specs) {
    require_valid(s.system);
    any_routed = any_routed || s.system.fabric != FabricKind::kNiConstant;
  }
  require_link_bw_routed(opt, any_routed);
  return run_matrix(specs, opt.jobs);
}

inline const char* scale_name(Scale s) {
  switch (s) {
    case Scale::kPaper: return "paper (Table 2)";
    case Scale::kTiny: return "tiny (smoke)";
    default: return "default (reduced)";
  }
}

// Run `systems` x `opt.apps`, normalize each app's row against a perfect
// CC-NUMA run of the same app, and return series keyed like the paper's
// figures (values = normalized execution time). Every system flag in
// `opt` applies to the baselines and to each system.
struct NormalizedGrid {
  std::vector<std::string> apps;
  std::vector<Series> series;        // one per system
  std::vector<RunResult> results;    // row-major: system-major order
  std::vector<RunResult> baselines;  // per app
};

inline NormalizedGrid run_normalized(
    const std::vector<std::pair<std::string, RunSpec>>& systems,
    const Options& opt) {
  const std::vector<std::string>& apps = opt.apps;
  std::vector<RunSpec> specs;
  for (const auto& app : apps)
    specs.push_back(opt.spec(SystemKind::kPerfectCcNuma, app));
  for (const auto& [name, proto] : systems) {
    for (const auto& app : apps) {
      RunSpec s = proto;
      s.workload = app;
      s.scale = opt.scale;
      opt.apply(s.system);
      specs.push_back(s);
    }
  }
  auto results = run_valid(specs, opt);

  NormalizedGrid grid;
  grid.apps = apps;
  grid.baselines.assign(results.begin(), results.begin() + apps.size());
  for (std::size_t sys = 0; sys < systems.size(); ++sys) {
    Series s;
    s.name = systems[sys].first;
    for (std::size_t a = 0; a < apps.size(); ++a) {
      const RunResult& r = results[apps.size() * (sys + 1) + a];
      s.values.push_back(r.normalized_to(grid.baselines[a]));
      grid.results.push_back(r);
    }
    grid.series.push_back(std::move(s));
  }
  return grid;
}

// One reporter column: a system/policy name plus an explicit list of
// that column's per-app results — rows[a] pairs with apps[a]. Replaces
// the old base-pointer + stride convention, which made every caller
// encode its result-matrix layout into an offset formula.
struct ResultColumn {
  std::string name;
  std::vector<const RunResult*> rows;  // one per app, app order
};

// Build a column by picking explicit indices out of a result matrix.
inline ResultColumn column_of(const std::string& name,
                              const std::vector<RunResult>& results,
                              const std::vector<std::size_t>& indices) {
  ResultColumn c{name, {}};
  for (std::size_t i : indices) c.rows.push_back(&results.at(i));
  return c;
}

// The columns of a system-major result matrix over `apps` apps: block 0
// holds each app's perfect CC-NUMA baseline ("perfect"), block i + 1
// the runs of system `names[i]`.
inline std::vector<ResultColumn> baseline_columns(
    const std::vector<std::string>& names,
    const std::vector<RunResult>& results, std::size_t apps) {
  std::vector<ResultColumn> columns;
  for (std::size_t c = 0; c <= names.size(); ++c) {
    ResultColumn col{c == 0 ? "perfect" : names[c - 1], {}};
    for (std::size_t a = 0; a < apps; ++a)
      col.rows.push_back(&results.at(apps * c + a));
    columns.push_back(std::move(col));
  }
  return columns;
}

// Table-4-style per-node interconnect traffic cell:
// data / coherence-control / page-op / recovery kilobytes (recovery =
// retransmissions, NACKs, and directory-rebuild census traffic; always
// 0 with the fault layer off).
inline std::string traffic_cell(const RunResult& r) {
  char buf[96];
  std::snprintf(
      buf, sizeof buf, "%.0f/%.0f/%.0f/%.0f",
      r.stats.traffic_bytes_per_node(TrafficClass::kData) / 1024.0,
      r.stats.traffic_bytes_per_node(TrafficClass::kControl) / 1024.0,
      r.stats.traffic_bytes_per_node(TrafficClass::kPageOp) / 1024.0,
      r.stats.traffic_bytes_per_node(TrafficClass::kRecovery) / 1024.0);
  return buf;
}

// Render `title` over a table with one row per app and one column per
// system, each cell filled by `cell`.
inline void print_grid(const char* title, const std::vector<std::string>& apps,
                       const std::vector<ResultColumn>& columns,
                       std::string (*cell)(const RunResult&)) {
  std::vector<std::string> header = {"app"};
  for (const auto& c : columns) header.push_back(c.name);
  Table t(header);
  for (std::size_t a = 0; a < apps.size(); ++a) {
    auto& row = t.add_row();
    row.cell(apps[a]);
    for (const auto& c : columns) row.cell(cell(*c.rows.at(a)));
  }
  std::printf("%s:\n%s\n", title, t.to_string().c_str());
}

// The per-node traffic table (see traffic_cell).
inline void print_traffic_table(const std::vector<std::string>& apps,
                                const std::vector<ResultColumn>& columns) {
  print_grid("per-node interconnect traffic, data/control/page-op/recovery KB",
             apps, columns, traffic_cell);
}

// Link-contention cell: peak FIFO depth on any mesh/torus link plus the
// per-node link-occupancy kilobytes (each traversal counted).
inline std::string link_cell(const RunResult& r) {
  char buf[64];
  const double kb_per_node =
      r.stats.node.empty()
          ? 0.0
          : double(r.stats.link_bytes_total()) / 1024.0 /
                double(r.stats.node.size());
  std::snprintf(buf, sizeof buf, "q=%u %.0fKB", r.stats.link_max_queue_depth(),
                kb_per_node);
  return buf;
}

// The link-contention table, meaningful only for runs on a routed
// fabric (mesh/torus).
inline void print_link_table(const std::vector<std::string>& apps,
                             const std::vector<ResultColumn>& columns) {
  print_grid(
      "link-level contention, peak queue depth / per-node link-occupancy KB",
      apps, columns, link_cell);
}

// The --json record schema version. Bump it when a key is renamed or
// dropped: CI archives the records from change to change.
inline constexpr int kRecordSchema = 1;

// One --json record: the bench's own fields (app, system, scenario),
// then the configuration and the counters of one run.
struct Record {
  std::vector<std::pair<const char*, std::string>> fields;
  const SystemConfig* cfg;
  const Stats* stats;
  double wall_seconds;
};

// The records of an app x column result grid, app-major.
inline std::vector<Record> records_of(
    const std::vector<std::string>& apps,
    const std::vector<ResultColumn>& columns) {
  std::vector<Record> out;
  for (std::size_t a = 0; a < apps.size(); ++a)
    for (const ResultColumn& c : columns) {
      const RunResult& r = *c.rows.at(a);
      out.push_back({{{"app", apps[a]}, {"system", c.name}},
                     &r.spec.system,
                     &r.stats,
                     r.wall_seconds});
    }
  return out;
}

// The records of a normalized grid, app-major: each app's perfect
// CC-NUMA baseline, then its run on every system.
inline std::vector<Record> records_of(const NormalizedGrid& grid) {
  const std::size_t apps = grid.apps.size();
  std::vector<ResultColumn> columns = {{"perfect", {}}};
  for (const RunResult& r : grid.baselines) columns[0].rows.push_back(&r);
  for (std::size_t sys = 0; sys < grid.series.size(); ++sys) {
    columns.push_back({grid.series[sys].name, {}});
    for (std::size_t a = 0; a < apps; ++a)
      columns.back().rows.push_back(&grid.results.at(apps * sys + a));
  }
  return records_of(grid.apps, columns);
}

// Write `records` to `path` as a JSON array, one object per line. Each
// holds the schema version, the bench, the record's own fields, the
// run's configuration, every counter Stats::visit names, the digest,
// and the host-time fields under "host". `jobs` is the sweep's worker
// count: wall time is measured with that many runs sharing the host.
// Two runs agree when their records agree without "host".
inline void write_json(const std::string& path, const char* bench,
                       const std::vector<Record>& records, unsigned jobs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "[");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    const SystemConfig& c = *r.cfg;
    const FaultConfig& fc = c.faults;
    std::fprintf(f, "%s\n  {\"schema\": %d, \"bench\": \"%s\"",
                 i == 0 ? "" : ",", kRecordSchema, bench);
    for (const auto& [key, value] : r.fields)
      std::fprintf(f, ", \"%s\": \"%s\"", key, value.c_str());
    // The run's rules in order ("migrep+rnuma" on R-NUMA+MigRep).
    std::string policy;
    for (const PolicyCounters& p : r.stats->policy)
      policy += (policy.empty() ? "" : "+") + p.name;
    std::fprintf(
        f,
        ", \"nodes\": %u, \"cpus_per_node\": %u, \"fabric\": \"%s\", "
        "\"dir_scheme\": \"%s\", \"policy\": \"%s\", \"fault_drop_pct\": %g, "
        "\"fault_dup_pct\": %g, \"fault_delay_pct\": %g, "
        "\"fault_delay_cycles\": %llu, \"fault_link_downs\": %zu, "
        "\"fault_node_downs\": %zu",
        c.nodes, c.cpus_per_node, to_string(c.fabric), to_string(c.dir_scheme),
        policy.empty() ? "none" : policy.c_str(), fc.drop_pct, fc.dup_pct,
        fc.delay_pct, static_cast<unsigned long long>(fc.delay_cycles),
        fc.link_downs.size() + fc.node_link_downs.size() + fc.rand_link_downs,
        fc.node_downs.size() + fc.rand_node_downs);
    r.stats->visit([f](std::string_view key, std::uint64_t value) {
      std::fprintf(f, ", \"%.*s\": %llu", int(key.size()), key.data(),
                   static_cast<unsigned long long>(value));
    });
    const double refs = double(r.stats->shared_reads + r.stats->shared_writes);
    std::fprintf(f,
                 ", \"digest\": \"%016llx\", \"host\": {\"wall_seconds\": "
                 "%.4f, \"events_per_sec\": %.0f, \"jobs\": %u}}",
                 static_cast<unsigned long long>(digest(*r.stats)),
                 r.wall_seconds,
                 r.wall_seconds > 0 ? refs / r.wall_seconds : 0.0, jobs);
  }
  std::fprintf(f, "\n]\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

// Wall-clock timer for a whole sweep (what --jobs improves).
class SweepTimer {
 public:
  SweepTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Print the sweep's host-side throughput: per-run simulator speed
// aggregated over the matrix, plus the end-to-end wall-clock the
// --jobs parallelism reduces.
inline void print_throughput_summary(const std::vector<RunResult>& results,
                                     double sweep_wall_seconds,
                                     unsigned jobs) {
  std::uint64_t refs = 0;
  double run_seconds = 0;
  for (const auto& r : results) {
    refs += r.sim_refs();
    run_seconds += r.wall_seconds;
  }
  std::printf(
      "sweep throughput: %zu runs, %.2fM simulated refs, "
      "%.0f refs/s/run avg, wall %.2fs (jobs=%u, cpu %.2fs)\n",
      results.size(), double(refs) / 1e6,
      run_seconds > 0 ? double(refs) / run_seconds : 0.0, sweep_wall_seconds,
      jobs == 0 ? hardware_jobs() : jobs, run_seconds);
}

inline void print_geomean_row(const NormalizedGrid& grid) {
  std::printf("geometric means:\n");
  for (const auto& s : grid.series) {
    double logsum = 0;
    for (double v : s.values) logsum += std::log(v);
    std::printf("  %-18s %.3f\n", s.name.c_str(),
                std::exp(logsum / double(s.values.size())));
  }
}

}  // namespace dsm::bench
