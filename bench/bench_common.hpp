// Shared scaffolding for the per-table/per-figure bench binaries.
//
// Every binary parses its command line with parse(), against the list of
// flags it takes: `--paper` runs the paper's Table-2 input sizes
// (defaults are reduced; see workloads/catalog.*), `--apps a,b,c`
// restricts the application list, and `--jobs N` runs the sweep's
// independent simulation configs on N workers (0 = one per hardware
// thread, 1 = serial). Per-run results are bit-identical at every job
// count; only wall-clock changes. A sweep over paper apps is one Sweep.
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
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "harness/parallel.hpp"
#include "harness/runner.hpp"
#include "net/fabric.hpp"
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
  Scale scale = Scale::kDefault;
  std::vector<std::string> apps = paper_apps();
  std::string json_path;  // --json FILE: one record per run
  // Sweep-harness worker count (--jobs N; 0 = hardware concurrency,
  // 1 = serial).
  unsigned jobs = 0;

  // The system flags. apply() copies a field into a run's config only
  // when its flag was given, so a column's own setting survives every
  // flag the bench does not take.
  FabricKind fabric = FabricKind::kNiConstant;
  // Mesh/torus link bandwidth (bytes/cycle; 0 = NI-only wire model).
  std::uint32_t link_bw = TimingConfig{}.mesh_link_bytes_per_cycle;
  // Machine shape (--nodes N, --cpus-per-node N) and directory
  // sharer-set representation (--dir-scheme full|limited|coarse|auto;
  // auto resolves to the exact full map whenever the machine fits in
  // 64 nodes).
  std::uint32_t nodes = 0;
  std::uint32_t cpus_per_node = 0;
  DirScheme dir_scheme = DirScheme::kAuto;
  // Decision engine (--policy default|adaptive): kDefault keeps the
  // paper's SystemKind pairing, kAdaptive replaces it; --adaptive-k N
  // is the adaptive engine's competitive constant.
  PolicyKind policy = PolicyKind::kDefault;
  std::uint32_t adaptive_k = 0;
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
  double fault_drop_pct = 1.0;
  double fault_dup_pct = 0.0;
  double fault_delay_pct = 0.0;
  Cycle fault_delay_cycles = 0;
  std::uint32_t fault_link_downs = 0;
  std::vector<FaultConfig::NodeLinkDown> fault_node_link_downs;
  std::uint32_t fault_rand_node_downs = 0;
  std::vector<FaultConfig::NodeDown> fault_node_downs;
  std::uint32_t fault_kinds = ~0u;  // bit per MsgKind; default = all
  Cycle fault_retry_base = 0;
  std::uint32_t fault_retry_max = 0;

  // Every flag on the command line, in order, with its value ("" for
  // --paper, --tiny and --table-only, which take none).
  std::vector<std::pair<std::string_view, std::string_view>> flags;

  bool given(std::string_view flag) const {
    return std::any_of(flags.begin(), flags.end(),
                       [&](const auto& f) { return f.first == flag; });
  }
  // The value of the last `flag` given; empty when it was not.
  std::string_view value(std::string_view flag) const {
    for (auto f = flags.rbegin(); f != flags.rend(); ++f)
      if (f->first == flag) return f->second;
    return {};
  }

  // The worker count actually used (what the throughput fields were
  // measured under — per-run wall time includes contention from
  // sibling workers, so jobs context is part of the measurement).
  unsigned resolved_jobs() const {
    return jobs == 0 ? hardware_jobs() : jobs;
  }

  // Set every field of one run's config whose flag was given.
  void apply(SystemConfig& sc) const {
    if (given("--fabric")) sc.fabric = fabric;
    if (given("--link-bw")) sc.timing.mesh_link_bytes_per_cycle = link_bw;
    if (given("--nodes")) sc.nodes = nodes;
    if (given("--cpus-per-node")) sc.cpus_per_node = cpus_per_node;
    if (given("--dir-scheme")) sc.dir_scheme = dir_scheme;
    if (given("--policy")) sc.policy = policy;
    if (given("--adaptive-k")) sc.timing.adaptive_k = adaptive_k;
    if (given("--fault-seed")) {
      sc.faults.seed = fault_seed;
      sc.faults.drop_pct = fault_drop_pct;
      sc.faults.dup_pct = fault_dup_pct;
      sc.faults.delay_pct = fault_delay_pct;
      if (given("--fault-delay-cycles"))
        sc.faults.delay_cycles = fault_delay_cycles;
      sc.faults.rand_link_downs = fault_link_downs;
      sc.faults.rand_node_downs = fault_rand_node_downs;
      sc.faults.fault_kinds = fault_kinds;
    }
    // Explicit node-pair outages and node crashes are deterministic
    // schedules, not seeded draws — they enable the fault layer on
    // their own.
    if (given("--fault-link-down"))
      sc.faults.node_link_downs = fault_node_link_downs;
    if (given("--fault-node-down")) sc.faults.node_downs = fault_node_downs;
    if (given("--fault-retry-base"))
      sc.timing.fault_retry_base = fault_retry_base;
    if (given("--fault-retry-max"))
      sc.timing.fault_retry_max_attempts = fault_retry_max;
  }
  bool routed_fabric() const { return fabric != FabricKind::kNiConstant; }
};

namespace detail {

// The value of `flag` that `arg` names in `names`; anything else exits 2.
template <class E>
E parse_name(const char* flag, std::string_view arg,
             std::initializer_list<std::pair<std::string_view, E>> names,
             const char* expected) {
  for (const auto& [name, e] : names)
    if (arg == name) return e;
  bad_value(flag, arg, expected);
}

inline double parse_pct(const char* flag, const char* arg) {
  char* end = nullptr;
  const double v = std::strtod(arg, &end);
  if (*arg < '0' || *arg > '9' || *end != '\0' || !(v >= 0.0 && v <= 100.0))
    bad_value(flag, arg, "0..100");
  return v;
}

// `arg` split at each of `seps` in turn; empty when one is missing.
inline std::vector<std::string_view> split_fields(std::string_view arg,
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
inline FaultConfig::NodeLinkDown parse_link_down(const char* flag,
                                                 const char* arg) {
  static constexpr const char* kForm =
      "a:b@cycle+N: nodes a != b, cycle < 2^40, N in 1..2^40";
  const std::vector<std::string_view> f = split_fields(arg, ":@+");
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
inline FaultConfig::NodeDown parse_node_down(const char* flag,
                                             const char* arg) {
  static constexpr const char* kForm =
      "n@cycle[+N]: cycle < 2^40, N in 1..2^40";
  const bool windowed = std::strchr(arg, '+') != nullptr;
  const std::vector<std::string_view> f =
      split_fields(arg, windowed ? "@+" : "@");
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
inline std::uint32_t parse_kinds(const char* flag, const char* arg) {
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

// Store `arg`, the value of `flag`, in its Options field. A flag that one
// bench reads itself (--ks, --table-only) has no field: the bench reads
// Options::value or Options::given.
inline void set_flag(Options& o, const char* flag, const char* arg) {
  const std::string_view f = flag;
  if (f == "--paper") {
    o.scale = Scale::kPaper;
  } else if (f == "--tiny") {
    o.scale = Scale::kTiny;
  } else if (f == "--json") {
    o.json_path = arg;
  } else if (f == "--jobs") {
    o.jobs = unsigned(
        parse_uint(flag, arg, 0, 4096,
                   "a worker count, 0..4096; 0 = one per hardware thread"));
  } else if (f == "--apps") {
    o.apps = split_list(arg);
    const std::vector<std::string>& known = all_workloads();
    for (const std::string& app : o.apps) {
      if (std::count(known.begin(), known.end(), app) != 0) continue;
      std::string names;
      for (const std::string& w : known)
        names += (names.empty() ? "" : "|") + w;
      bad_value(flag, app, ("a comma list of " + names).c_str());
    }
  } else if (f == "--fabric") {
    o.fabric = parse_name<FabricKind>(
        flag, arg,
        {{"mesh", FabricKind::kMesh2d}, {"mesh-2d", FabricKind::kMesh2d},
         {"torus", FabricKind::kTorus2d}, {"torus-2d", FabricKind::kTorus2d},
         {"ni", FabricKind::kNiConstant},
         {"ni-constant", FabricKind::kNiConstant}},
        "mesh|torus|ni");
  } else if (f == "--link-bw") {
    o.link_bw = std::uint32_t(parse_uint(
        flag, arg, 0, ~std::uint32_t(0) - 1,
        "bytes/cycle; 0 disables link contention"));
  } else if (f == "--nodes") {
    o.nodes =
        std::uint32_t(parse_uint(flag, arg, 1, 1u << 16, "a node count"));
  } else if (f == "--cpus-per-node") {
    o.cpus_per_node = std::uint32_t(
        parse_uint(flag, arg, 1, 1u << 10, "a per-node cpu count"));
  } else if (f == "--dir-scheme") {
    o.dir_scheme = parse_name<DirScheme>(
        flag, arg,
        {{"full", DirScheme::kFullMap}, {"full-map", DirScheme::kFullMap},
         {"limited", DirScheme::kLimitedPtr},
         {"limited-ptr", DirScheme::kLimitedPtr},
         {"coarse", DirScheme::kCoarse},
         {"coarse-vector", DirScheme::kCoarse}, {"auto", DirScheme::kAuto}},
        "full|limited|coarse|auto");
  } else if (f == "--policy") {
    o.policy = parse_name<PolicyKind>(
        flag, arg,
        {{"default", PolicyKind::kDefault},
         {"adaptive", PolicyKind::kAdaptive}},
        "default|adaptive");
  } else if (f == "--adaptive-k") {
    o.adaptive_k = std::uint32_t(parse_uint(
        flag, arg, 1, 1u << 20, "a positive competitive constant"));
  } else if (f == "--fault-seed") {
    o.fault_seed = parse_uint(flag, arg, 0, ~std::uint64_t(0), "a seed");
  } else if (f == "--fault-drop-pct") {
    o.fault_drop_pct = parse_pct(flag, arg);
  } else if (f == "--fault-dup-pct") {
    o.fault_dup_pct = parse_pct(flag, arg);
  } else if (f == "--fault-delay-pct") {
    o.fault_delay_pct = parse_pct(flag, arg);
  } else if (f == "--fault-delay-cycles") {
    o.fault_delay_cycles =
        parse_uint(flag, arg, 1, kMaxFlagCycle, "extra cycles, 1..2^40");
  } else if (f == "--fault-link-down") {
    o.fault_node_link_downs.push_back(parse_link_down(flag, arg));
  } else if (f == "--fault-link-downs") {
    o.fault_link_downs =
        std::uint32_t(parse_uint(flag, arg, 0, 1u << 16, "an outage count"));
  } else if (f == "--fault-node-down") {
    o.fault_node_downs.push_back(parse_node_down(flag, arg));
  } else if (f == "--fault-node-downs") {
    o.fault_rand_node_downs =
        std::uint32_t(parse_uint(flag, arg, 0, 1u << 16, "a crash count"));
  } else if (f == "--fault-kinds") {
    o.fault_kinds = parse_kinds(flag, arg);
  } else if (f == "--fault-retry-base") {
    o.fault_retry_base =
        parse_uint(flag, arg, 1, kMaxFlagCycle, "cycles, 1..2^40");
  } else if (f == "--fault-retry-max") {
    o.fault_retry_max =
        std::uint32_t(parse_uint(flag, arg, 1, 64, "1..64 attempts"));
  }
}

}  // namespace detail

// The flags of a sweep over paper apps: the harness flags, then every
// flag that shapes a run's SystemConfig (Options::apply).
inline const std::vector<std::string_view> kSweepFlags = {
    "--paper", "--tiny", "--apps", "--jobs", "--json",
    "--fabric", "--link-bw", "--nodes", "--cpus-per-node", "--dir-scheme",
    "--policy", "--adaptive-k",
    "--fault-seed", "--fault-drop-pct", "--fault-dup-pct",
    "--fault-delay-pct", "--fault-delay-cycles", "--fault-link-down",
    "--fault-link-downs", "--fault-node-down", "--fault-node-downs",
    "--fault-kinds", "--fault-retry-base", "--fault-retry-max"};

// Parse the command line against `accepted`, the flags this bench takes.
// A flag not in the list, a missing or bad value, or a flag that only
// shapes the seeded fault draws given without --fault-seed exits 2
// naming the flag: no flag is silently ignored.
inline Options parse(int argc, char** argv,
                     const std::vector<std::string_view>& accepted) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::find(accepted.begin(), accepted.end(), flag) == accepted.end()) {
      std::string list;
      for (const std::string_view a : accepted)
        (list += list.empty() ? "only " : " ") += a;
      std::fprintf(stderr,
                   "%s: '%s' is not a flag of this bench, which takes %s\n",
                   argv[0], flag, list.empty() ? "no flags" : list.c_str());
      std::exit(2);
    }
    const std::string_view f = flag;
    const bool takes_value =
        f != "--paper" && f != "--tiny" && f != "--table-only";
    if (takes_value && i + 1 == argc) {
      std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
      std::exit(2);
    }
    const char* arg = takes_value ? argv[++i] : "";
    detail::set_flag(o, flag, arg);
    o.flags.emplace_back(flag, arg);
  }
  for (const std::string_view seeded :
       {"--fault-drop-pct", "--fault-dup-pct", "--fault-delay-pct",
        "--fault-delay-cycles", "--fault-link-downs", "--fault-node-downs",
        "--fault-kinds"}) {
    if (!o.given(seeded) || o.given("--fault-seed")) continue;
    std::fprintf(stderr,
                 "%s: %.*s shapes the seeded fault plan and needs "
                 "--fault-seed N\n",
                 argv[0], int(seeded.size()), seeded.data());
    std::exit(2);
  }
  return o;
}

// Exit 2 with validate()'s message when `cfg` cannot run.
inline void require_valid(const SystemConfig& cfg) {
  const std::string invalid = validate(cfg);
  if (invalid.empty()) return;
  std::fprintf(stderr, "invalid configuration: %s\n", invalid.c_str());
  std::exit(2);
}

// Exit 2 unless every cell's config (`cell.*cfg`) can run, and each given
// flag that tunes only some configs reaches one of them: --link-bw needs
// a routed fabric, --adaptive-k the adaptive policy, and the retry flags
// the fault layer. Otherwise the flag would change nothing.
template <class Cell>
void require_runnable(const Options& opt, const std::vector<Cell>& cells,
                      SystemConfig Cell::*cfg) {
  bool routed = false, adaptive = false, faulty = false;
  for (const Cell& cell : cells) {
    const SystemConfig& c = cell.*cfg;
    require_valid(c);
    routed = routed || c.fabric != FabricKind::kNiConstant;
    adaptive = adaptive || c.policy == PolicyKind::kAdaptive;
    faulty = faulty || c.faults.enabled();
  }
  const struct {
    const char* flag;
    bool reached;
    const char* why;
  } reach[] = {
      {"--link-bw", routed,
       "every cell runs on ni-constant, which has no links (add --fabric "
       "mesh|torus)"},
      {"--adaptive-k", adaptive,
       "no cell runs the adaptive policy (add --policy adaptive)"},
      {"--fault-retry-base", faulty,
       "no cell has the fault layer on (add --fault-seed N)"},
      {"--fault-retry-max", faulty,
       "no cell has the fault layer on (add --fault-seed N)"},
  };
  for (const auto& r : reach) {
    if (r.reached || !opt.given(r.flag)) continue;
    const std::string_view value = opt.value(r.flag);
    std::fprintf(stderr, "%s %.*s reaches no cell: %s\n", r.flag,
                 int(value.size()), value.data(), r.why);
    std::exit(2);
  }
}

inline const char* scale_name(Scale s) {
  switch (s) {
    case Scale::kPaper: return "paper (Table 2)";
    case Scale::kTiny: return "tiny (smoke)";
    default: return "default (reduced)";
  }
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

// One experiment: named columns, each a prototype RunSpec, run against a
// list of apps. Every spec is its column's prototype with the app and
// the scale filled in, then opt.apply; every spec is checked
// (require_runnable) before any runs, and all run once through
// run_matrix. Column 0 is the perfect CC-NUMA baseline when the bench
// normalizes.
struct Sweep {
  struct Column {
    std::string name;  // the records' "system"
    RunSpec proto;
  };

  Sweep(const Options& opt, std::vector<Column> cols)
      : Sweep(opt, std::move(cols), opt.apps) {}
  Sweep(const Options& opt, std::vector<Column> cols,
        std::vector<std::string> app_list)
      : apps(std::move(app_list)), columns(std::move(cols)) {
    std::vector<RunSpec> specs;
    for (const std::string& app : apps) {
      for (const Column& c : columns) {
        RunSpec s = c.proto;
        s.workload = app;
        s.scale = opt.scale;
        opt.apply(s.system);
        specs.push_back(std::move(s));
      }
    }
    require_runnable(opt, specs, &RunSpec::system);
    const SweepTimer timer;
    results = run_matrix(specs, opt.jobs);
    wall_seconds = timer.seconds();
  }

  // Column c's run of app a, and its time over column 0's run of a.
  const RunResult& at(std::size_t c, std::size_t a) const {
    return results.at(a * columns.size() + c);
  }
  double normalized(std::size_t c, std::size_t a) const {
    return at(c, a).normalized_to(at(0, a));
  }

  std::vector<std::string> apps;
  std::vector<Column> columns;
  std::vector<RunResult> results;  // app-major
  double wall_seconds = 0;         // the whole sweep's
};

// Columns 1.. of a normalizing sweep as figure series: each app's
// execution time over its perfect CC-NUMA run.
inline std::vector<Series> normalized_series(const Sweep& s) {
  std::vector<Series> series;
  for (std::size_t c = 1; c < s.columns.size(); ++c) {
    series.push_back({s.columns[c].name, {}});
    for (std::size_t a = 0; a < s.apps.size(); ++a)
      series.back().values.push_back(s.normalized(c, a));
  }
  return series;
}

// A normalized figure: one row per app and one column per system, then
// each system's geometric mean over the apps.
inline void print_normalized(const Sweep& s) {
  const std::vector<Series> series = normalized_series(s);
  std::printf("%s\n", render_series(s.apps, series).c_str());
  std::printf("geometric means:\n");
  for (const Series& x : series) {
    double logsum = 0;
    for (double v : x.values) logsum += std::log(v);
    std::printf("  %-18s %.3f\n", x.name.c_str(),
                std::exp(logsum / double(x.values.size())));
  }
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
// column of `s`, each cell filled by `cell`.
inline void print_grid(const char* title, const Sweep& s,
                       std::string (*cell)(const RunResult&)) {
  std::vector<std::string> header = {"app"};
  for (const Sweep::Column& c : s.columns) header.push_back(c.name);
  Table t(header);
  for (std::size_t a = 0; a < s.apps.size(); ++a) {
    t.add_row().cell(s.apps[a]);
    for (std::size_t c = 0; c < s.columns.size(); ++c)
      t.cell(cell(s.at(c, a)));
  }
  std::printf("%s:\n%s\n", title, t.to_string().c_str());
}

// The per-node traffic table (see traffic_cell).
inline void print_traffic_table(const Sweep& s) {
  print_grid("per-node interconnect traffic, data/control/page-op/recovery KB",
             s, traffic_cell);
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
inline void print_link_table(const Sweep& s) {
  print_grid(
      "link-level contention, peak queue depth / per-node link-occupancy KB",
      s, link_cell);
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

// The records of a sweep, app-major: each app's run in every column.
inline std::vector<Record> records_of(const Sweep& s) {
  std::vector<Record> out;
  for (std::size_t a = 0; a < s.apps.size(); ++a) {
    for (std::size_t c = 0; c < s.columns.size(); ++c) {
      const RunResult& r = s.at(c, a);
      out.push_back({{{"app", s.apps[a]}, {"system", s.columns[c].name}},
                     &r.spec.system,
                     &r.stats,
                     r.wall_seconds});
    }
  }
  return out;
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

// Print the sweep's host-side throughput: per-run simulator speed
// aggregated over the matrix, plus the end-to-end wall-clock the
// --jobs parallelism reduces.
inline void print_throughput_summary(const Sweep& s, const Options& opt) {
  std::uint64_t refs = 0;
  double run_seconds = 0;
  for (const RunResult& r : s.results) {
    refs += r.sim_refs();
    run_seconds += r.wall_seconds;
  }
  std::printf(
      "sweep throughput: %zu runs, %.2fM simulated refs, "
      "%.0f refs/s/run avg, wall %.2fs (jobs=%u, cpu %.2fs)\n",
      s.results.size(), double(refs) / 1e6,
      run_seconds > 0 ? double(refs) / run_seconds : 0.0, s.wall_seconds,
      opt.resolved_jobs(), run_seconds);
}

// The synthetic sweeps (bench_scaleout, bench_fault_scale,
// bench_mesh_contention) place page p at page_addr(p).
inline constexpr Addr kHeapBase = 0x100000;
inline Addr page_addr(unsigned p) { return kHeapBase + Addr(p) * kPageBytes; }

// The readers of page p, homed at `home`: pattern[p % 4] nodes (at most
// nodes - 1), spread across the machine so distinct coarse regions are
// touched (worst case for the conservative multicast).
inline std::vector<NodeId> readers_of(unsigned p, std::uint32_t nodes,
                                      NodeId home,
                                      const unsigned (&pattern)[4]) {
  const unsigned want = std::min<unsigned>(pattern[p % 4], nodes - 1);
  const std::uint32_t stride = std::max<std::uint32_t>(1, nodes / 16);
  std::vector<NodeId> out;
  for (std::uint32_t k = 0; out.size() < want; ++k) {
    const NodeId n = NodeId((home + 1 + k * stride) % nodes);
    if (n != home && std::find(out.begin(), out.end(), n) == out.end())
      out.push_back(n);
  }
  return out;
}

// One directed link of a routed fabric: the router it leaves, its
// direction, and its counters.
struct LinkRef {
  std::uint32_t router;
  LinkDir dir;
  const MeshLink* link;

  std::string name() const {
    return std::to_string(router) + "->" + to_string(dir);
  }
};

// Every link of `fab` that carried a message, most bytes first.
inline std::vector<LinkRef> busiest_links(const Fabric& fab) {
  std::vector<LinkRef> links;
  for (std::uint32_t rt = 0; rt < fab.grid().routers(); ++rt)
    for (std::uint32_t d = 0; d < std::uint32_t(LinkDir::kCount); ++d)
      if (fab.out_link(rt, LinkDir(d)).msgs > 0)
        links.push_back({rt, LinkDir(d), &fab.out_link(rt, LinkDir(d))});
  std::sort(links.begin(), links.end(), [](const LinkRef& a, const LinkRef& b) {
    return a.link->bytes > b.link->bytes;
  });
  return links;
}

}  // namespace dsm::bench
