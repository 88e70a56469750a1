// perfbench_dsm: one measured operation of the repository benchmark.
//
// Each process runs ONE operation on one workload and prints one JSON
// object on stdout. run.py launches operations in fresh processes (so a
// tripped DSM_ASSERT fails one operation, not the whole run), checks the
// simulated digests of all operations against each other, and turns the
// samples into the benchmark's metrics.
//
//   perfbench_dsm --workload W --op harness|traced --seed S
//
// Operations:
//   harness  kSetupReps setup-only repetitions (the public calls from
//            spec up to the last Engine::spawn, then teardown), then the
//            workload once through the public harness, run_one; the
//            reference task (reference_s) is timed before and after.
//   traced   two passes of run_one rebuilt from public calls, each with
//            every phase timed and followed by verify() and
//            check_coherence(): first plain, then with TimedMemory (a
//            timing MemorySystem decorator) between the Engine and the
//            DsmSystem. The engine's own time is the plain pass's
//            parallel phase minus the traced pass's time inside access,
//            so the decorator's own cost lands in neither. The reference
//            task is timed before and after, as in harness.
//
// Every layer is timed from outside the simulator: nothing under src/
// knows it is being measured. Every run uses the serial Engine: the
// variables that make run_one pick the sharded engine are cleared first.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "dsm/cluster.hpp"
#include "harness/runner.hpp"
#include "protocols/policy_engine.hpp"
#include "protocols/system_factory.hpp"
#include "sim/engine.hpp"
#include "workloads/catalog.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace dsm;
using Clock = std::chrono::steady_clock;

// Setup-only repetitions per harness operation; setup_s is their median.
constexpr unsigned kSetupReps = 5;

double seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Per-access timestamps: the TSC where there is one (a few ns per read),
// else the steady clock in ns. Converted to seconds by calibrating
// against the steady clock over the whole parallel phase.
inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return std::uint64_t(Clock::now().time_since_epoch().count());
#endif
}

// ---------------------------------------------------------------------------
// Workloads (why each one is in the benchmark: README.md)
// ---------------------------------------------------------------------------

// `seed` is the workload seed (SystemConfig::seed); mesh64-chaos also
// draws its fault plan from it.
std::optional<RunSpec> workload_spec(const std::string& name,
                                     std::uint64_t seed) {
  RunSpec s;
  if (name == "raytrace-migrep") {
    s = paper_spec(SystemKind::kCcNumaMigRep, "raytrace", Scale::kPaper);
  } else if (name == "mesh64-chaos") {
    s = paper_spec(SystemKind::kCcNuma, "radix", Scale::kDefault);
    s.system.nodes = 64;
    s.system.cpus_per_node = 1;
    s.system.fabric = FabricKind::kMesh2d;
    s.system.mesh_width = 8;
    FaultConfig& f = s.system.faults;
    f.seed = seed;
    f.drop_pct = 1.0;
    f.dup_pct = 0.5;
    f.delay_pct = 1.0;
    f.rand_link_downs = 4;
    f.node_downs.push_back({5, 40'000'000, 120'000'000});
  } else {
    return std::nullopt;
  }
  s.system.seed = seed;
  return s;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

class Json {
 public:
  Json& key(const std::string& k) {
    sep();
    out_ += '"' + k + "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& num(std::uint64_t v) {
    sep();
    out_ += std::to_string(v);
    return *this;
  }
  Json& str(const std::string& s) {
    sep();
    out_ += '"' + s + '"';
    return *this;
  }
  Json& open(char c) {
    sep();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

// The simulated outputs every run of a workload must reproduce exactly:
// cycles, traffic per class, misses, page operations, policy decisions
// and fault counters.
void write_digest(Json& j, const std::string& name, const RunResult& r) {
  const Stats& s = r.stats;
  const TrafficBreakdown t = s.traffic_total();
  const FaultStats& f = s.faults;
  std::uint64_t l1_misses = 0, evictions = 0, collapses = 0;
  for (const NodeStats& n : s.node) {
    l1_misses += n.l1_misses.total();
    evictions += n.page_cache_evictions;
    collapses += n.replica_collapses;
  }
  j.key(name).open('{');
  j.key("sim_cycles").num(std::uint64_t(r.cycles));
  j.key("refs").num(r.sim_refs());
  j.key("bytes_data").num(t.bytes_of(TrafficClass::kData));
  j.key("bytes_control").num(t.bytes_of(TrafficClass::kControl));
  j.key("bytes_pageop").num(t.bytes_of(TrafficClass::kPageOp));
  j.key("bytes_recovery").num(t.bytes_of(TrafficClass::kRecovery));
  j.key("msgs").num(t.total_msgs());
  j.key("l1_misses").num(l1_misses);
  j.key("remote_misses").num(s.remote_misses_total().total());
  j.key("capacity_misses").num(s.remote_misses_total().capacity_conflict());
  j.key("migrations").num(s.page_migrations_total());
  j.key("replications").num(s.page_replications_total());
  j.key("relocations").num(s.page_relocations_total());
  j.key("page_cache_evictions").num(evictions);
  j.key("replica_collapses").num(collapses);
  for (const PolicyCounters& p : s.policy) {
    const std::string k = "policy." + p.name + ".";
    j.key(k + "events").num(p.events);
    j.key(k + "migrations").num(p.migrations);
    j.key(k + "replications").num(p.replications);
    j.key(k + "relocations").num(p.relocations);
    j.key(k + "suppressed").num(p.suppressed);
  }
  j.key("fault.drops_injected").num(f.drops_injected);
  j.key("fault.dups_injected").num(f.dups_injected);
  j.key("fault.delays_injected").num(f.delays_injected);
  j.key("fault.retries").num(f.retries);
  j.key("fault.nacks").num(f.nacks);
  j.key("fault.reroutes").num(f.reroutes);
  j.key("fault.aborted_page_ops").num(f.aborted_page_ops);
  j.key("fault.hard_errors").num(f.hard_errors);
  j.key("fault.crash_drops").num(f.crash_drops);
  j.key("fault.rehomes").num(f.rehomes);
  j.key("fault.dir_rebuilds").num(f.dir_rebuilds);
  j.key("fault.data_losses").num(f.data_losses);
  j.close('}');
}

// ---------------------------------------------------------------------------
// TimedMemory: per-access host time, classified from read-only state
// ---------------------------------------------------------------------------

// Exact counts below kExact cycles, the rest kept individually.
class LatencyHistogram {
 public:
  static constexpr Cycle kExact = 1 << 16;
  void add(Cycle c) {
    if (c < kExact)
      counts_[c]++;
    else
      tail_.push_back(c);
    n_++;
  }
  // Nearest-rank percentile; 0 when empty.
  Cycle percentile(double p) {
    if (n_ == 0) return 0;
    const std::uint64_t rank =
        std::min(std::uint64_t(p * double(n_)), n_ - 1);
    std::uint64_t seen = 0;
    for (Cycle c = 0; c < kExact; ++c) {
      seen += counts_[c];
      if (seen > rank) return c;
    }
    std::sort(tail_.begin(), tail_.end());
    return tail_[rank - seen];
  }

 private:
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kExact);
  std::vector<Cycle> tail_;
  std::uint64_t n_ = 0;
};

enum AccessClass { kL1Hit = 0, kLocal, kCacheHit, kRemote, kOther, kClasses };

// The cost of an empty timed interval (two back-to-back reads), taken
// off every timed access so short L1 hits are not dominated by it.
std::uint64_t tick_overhead() {
  std::vector<std::uint64_t> d(2001);
  for (std::uint64_t& x : d) {
    const std::uint64_t t0 = ticks();
    x = ticks() - t0;
  }
  std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
  return d[d.size() / 2];
}

struct AccessTimes {
  // Host ticks per class, net of the timing overhead. L1 hits are timed
  // one in kHitSample (they are most accesses and the shortest), and
  // scaled up by count / timed.
  static constexpr std::uint64_t kHitSample = 16;
  std::uint64_t ticks[kClasses] = {};
  std::uint64_t count[kClasses] = {};
  std::uint64_t timed[kClasses] = {};
  std::uint64_t bc_hits = 0, bc_misses = 0;  // block-cache attempts
  LatencyHistogram remote_latency;           // simulated cycles

  void add(AccessClass c, std::uint64_t dt, std::uint64_t overhead) {
    ticks[c] += dt > overhead ? dt - overhead : 0;
    timed[c]++;
  }
  double class_ticks(int c) const {
    return timed[c] ? double(ticks[c]) * double(count[c]) / double(timed[c])
                    : 0.0;
  }
};

// Sits between the Engine and the DsmSystem; MemorySystem::access is
// the engine's only way into the memory model. The L1 outcome comes from
// an L1Cache::probe before the call; the node-level outcome from the
// requesting node's NodeStats deltas across it: a remote miss, else a
// block- or page-cache hit, else a local memory fill, else "other" (a
// peer L1 supplied the block, or a write upgraded inside the node).
class TimedMemory final : public MemorySystem {
 public:
  TimedMemory(DsmSystem& sys, Stats& stats, AccessTimes& out)
      : sys_(sys), stats_(stats), out_(out), overhead_(tick_overhead()) {}

  Cycle access(const MemAccess& a) override {
    const L1Cache::Line* ln = sys_.l1(a.cpu).probe(block_of(a.addr));
    if (ln != nullptr && (!a.write || l1_writable(ln->state))) {
      if (out_.count[kL1Hit]++ % AccessTimes::kHitSample != 0)
        return sys_.access(a);
      const std::uint64_t t0 = ticks();
      const Cycle done = sys_.access(a);
      out_.add(kL1Hit, ticks() - t0, overhead_);
      return done;
    }
    const NodeStats& ns = stats_.node[a.node];
    const std::uint64_t local0 = ns.local_mem_accesses;
    const std::uint64_t cache0 = ns.bc_hits + ns.pc_hits;
    const std::uint64_t bc0 = ns.bc_hits;
    const std::uint64_t remote0 = ns.remote_misses.total();
    // Would a miss here look in the block cache? (CC-NUMA-mapped page
    // homed on another node.)
    const PageInfo* pi = sys_.page_table().find(page_of(a.addr));
    const bool via_bc = pi && pi->mode[a.node] == PageMode::kCcNuma &&
                        pi->home != kNoNode && pi->home != a.node;

    const std::uint64_t t0 = ticks();
    const Cycle done = sys_.access(a);
    const std::uint64_t dt = ticks() - t0;

    AccessClass c = kOther;
    if (ns.remote_misses.total() != remote0) {
      c = kRemote;
      out_.remote_latency.add(done - a.start);
      out_.bc_misses += via_bc;
    } else if (ns.bc_hits + ns.pc_hits != cache0) {
      c = kCacheHit;
      out_.bc_hits += ns.bc_hits != bc0;
    } else if (ns.local_mem_accesses != local0) {
      c = kLocal;
    }
    out_.add(c, dt, overhead_);
    out_.count[c]++;
    return done;
  }
  void parallel_begin(Cycle now) override { sys_.parallel_begin(now); }
  void parallel_end(Cycle now) override { sys_.parallel_end(now); }

 private:
  DsmSystem& sys_;
  Stats& stats_;
  AccessTimes& out_;
  const std::uint64_t overhead_;
};

// ---------------------------------------------------------------------------
// The run_one call sequence, rebuilt from public calls
// ---------------------------------------------------------------------------

// Everything run_one builds before Engine::run, in run_one's order.
// Members destruct in reverse declaration order, as run_one's locals do.
struct Built {
  std::unique_ptr<DsmSystem> system;
  std::unique_ptr<MemorySystem> decorator;  // null when untraced
  std::unique_ptr<Engine> engine;
  SharedSpace space;
  std::unique_ptr<Workload> workload;
  std::vector<WorkerCtx> ctxs;

  // A non-null `times` puts a TimedMemory recording into it between the
  // Engine and the system.
  Built(const RunSpec& spec, Stats* stats, AccessTimes* times) {
    system = make_system(spec.system, stats);
    if (times)
      decorator = std::make_unique<TimedMemory>(*system, *stats, *times);
    MemorySystem* mem = decorator ? decorator.get() : system.get();
    engine = std::make_unique<Engine>(spec.system, mem, stats);
    workload = make_workload(spec.workload, spec.scale);
    const std::uint32_t n = spec.system.total_cpus();
    workload->setup(*engine, space, n);
    ctxs.resize(n);
    for (std::uint32_t t = 0; t < n; ++t) {
      ctxs[t].cpu = &engine->cpu(t);
      ctxs[t].tid = t;
      ctxs[t].nthreads = n;
      ctxs[t].rng.reseed(spec.system.seed + t);
      engine->spawn(t, workload->body(ctxs[t]));
    }
  }
};

// Host seconds from spec to the last spawn; teardown is not timed.
double setup_only(const RunSpec& spec) {
  const auto t0 = Clock::now();
  Stats stats(spec.system.nodes);
  Built b(spec, &stats, nullptr);
  return seconds(t0, Clock::now());
}

// Host seconds for a fixed task that uses none of src/: sorting 2^18
// pseudo-random 32-bit keys (1 MiB, cache-resident), fastest of three.
// The host's speed drifts by up to 1.6x over tens of seconds with the load
// other tenants put on shared cores, and this task's time follows that
// drift (correlation 0.8 with an operation's time), so run.py divides
// every host time by it.
double reference_s() {
  std::vector<std::uint32_t> keys(1u << 18);
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t& k : keys) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = std::uint32_t(x);
    }
    const auto t0 = Clock::now();
    std::sort(keys.begin(), keys.end());
    const double t = seconds(t0, Clock::now());
    if (rep == 0 || t < best) best = t;
  }
  return best;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// One pass of the rebuilt run_one, with each phase timed.
struct Pass {
  RunResult result;
  double setup_s = 0, run_s = 0, verify_s = 0, teardown_s = 0, wall_s = 0;
  double s_per_tick = 0;  // host seconds per ticks() unit
  // Simulated occupancy, summed over nodes, and policy events; read
  // from the live system after verify, outside every phase but wall_s.
  double bus = 0, device = 0, ni = 0;
  std::uint64_t events = 0;
};

// A non-null `times` puts TimedMemory, recording into it, in the pass.
Pass run_pass(const RunSpec& spec, AccessTimes* times) {
  Pass p;
  p.result.spec = spec;
  p.result.stats = Stats(spec.system.nodes);

  const auto t0 = Clock::now();
  auto b = std::make_unique<Built>(spec, &p.result.stats, times);
  const auto t1 = Clock::now();
  const std::uint64_t k1 = ticks();
  b->system->parallel_begin(0);
  b->engine->run();
  b->system->parallel_end(b->engine->finish_time());
  const std::uint64_t k2 = ticks();
  const auto t2 = Clock::now();
  b->workload->verify();
  b->system->check_coherence();
  const auto t3 = Clock::now();

  RunResult& r = p.result;
  r.cycles = b->engine->finish_time();
  r.stats.execution_cycles = r.cycles;
  r.stats.total_cycles = r.cycles;
  DsmSystem& sys = *b->system;
  for (NodeId n = 0; n < sys.nodes(); ++n) {
    p.bus += double(sys.node_bus(n).total_busy());
    p.device += double(sys.node_device(n).total_busy());
    p.ni += double(sys.fabric().send_ni(n).total_busy() +
                   sys.fabric().recv_ni(n).total_busy());
  }
  p.events = sys.policy_engine().events_dispatched();

  const auto t4 = Clock::now();
  b.reset();
  const auto t5 = Clock::now();

  p.setup_s = seconds(t0, t1);
  p.run_s = seconds(t1, t2);
  p.verify_s = seconds(t2, t3);
  p.teardown_s = seconds(t4, t5);
  p.wall_s = seconds(t0, t5);
  p.s_per_tick = k2 > k1 ? p.run_s / double(k2 - k1) : 0.0;
  return p;
}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

void op_harness(Json& j, const RunSpec& spec) {
  const double ref_before = reference_s();
  j.key("setup_s").open('[');
  for (unsigned r = 0; r < kSetupReps; ++r) j.num(setup_only(spec));
  j.close(']');
  const auto t0 = Clock::now();
  const RunResult result = run_one(spec);
  j.key("wall_s").num(seconds(t0, Clock::now()));  // with teardown
  j.key("run_wall_s").num(result.wall_seconds);
  j.key("ref_s").open('[').num(ref_before).num(reference_s()).close(']');
  write_digest(j, "digest", result);
}

void op_traced(Json& j, const RunSpec& spec) {
  const double ref_before = reference_s();
  const Pass plain = run_pass(spec, nullptr);
  AccessTimes acc;
  const Pass traced = run_pass(spec, &acc);
  j.key("ref_s").open('[').num(ref_before).num(reference_s()).close(']');

  double class_s[kClasses];
  double access_s = 0;
  for (int c = 0; c < kClasses; ++c) {
    class_s[c] = acc.class_ticks(c) * traced.s_per_tick;
    access_s += class_s[c];
  }
  const auto ns_per = [&](AccessClass c) {
    return ratio(class_s[c] * 1e9, double(acc.count[c]));
  };
  // The decorator's probe, classification and bookkeeping run outside
  // every timed interval, so the traced pass's parallel phase minus
  // access_s would charge them to the engine. The plain pass has none.
  const double engine_s = plain.run_s - access_s;

  const Stats& st = traced.result.stats;
  const TrafficBreakdown t = st.traffic_total();
  const FaultStats& f = st.faults;
  const double refs = double(traced.result.sim_refs());
  const double node_cycles =
      double(spec.system.nodes) * double(traced.result.cycles);
  std::uint64_t l1_misses = 0;
  for (const NodeStats& n : st.node) l1_misses += n.l1_misses.total();
  std::uint64_t decisions = 0, suppressed = 0;
  for (const PolicyCounters& p : st.policy) {
    decisions += p.migrations + p.replications + p.relocations;
    suppressed += p.suppressed;
  }

  j.key("layers").open('{');
  j.key("trace.plain_wall_s").num(plain.wall_s);
  j.key("trace.overhead").num(traced.wall_s / plain.wall_s - 1.0);
  j.key("harness.setup_s").num(plain.setup_s);
  j.key("sim.engine_s").num(engine_s);
  j.key("sim.engine_ns_per_ref").num(ratio(engine_s * 1e9, refs));
  j.key("mem.l1_miss_ratio").num(ratio(double(l1_misses), refs));
  j.key("mem.l1_hit_ns").num(ns_per(kL1Hit));
  j.key("dsm.access_s").num(access_s);
  j.key("dsm.local_miss_ns").num(ns_per(kLocal));
  j.key("dsm.cache_hit_ns").num(ns_per(kCacheHit));
  j.key("dsm.remote_miss_ns").num(ns_per(kRemote));
  j.key("dsm.other_miss_ns").num(ns_per(kOther));
  j.key("dsm.remote_misses").num(st.remote_misses_total().total());
  j.key("dsm.capacity_misses")
      .num(st.remote_misses_total().capacity_conflict());
  j.key("dsm.bc_hit_ratio")
      .num(ratio(double(acc.bc_hits), double(acc.bc_hits + acc.bc_misses)));
  j.key("dsm.page_ops")
      .num(st.page_migrations_total() + st.page_replications_total() +
           st.page_relocations_total());
  j.key("dsm.bus_util").num(ratio(traced.bus, node_cycles));
  j.key("dsm.device_util").num(ratio(traced.device, node_cycles));
  j.key("dsm.remote_lat_p50")
      .num(std::uint64_t(acc.remote_latency.percentile(0.50)));
  j.key("dsm.remote_lat_p99")
      .num(std::uint64_t(acc.remote_latency.percentile(0.99)));
  j.key("net.msgs").num(t.total_msgs());
  j.key("net.bytes.data").num(t.bytes_of(TrafficClass::kData));
  j.key("net.bytes.control").num(t.bytes_of(TrafficClass::kControl));
  j.key("net.bytes.pageop").num(t.bytes_of(TrafficClass::kPageOp));
  j.key("net.bytes.recovery").num(t.bytes_of(TrafficClass::kRecovery));
  j.key("net.ni_util").num(ratio(traced.ni, 2 * node_cycles));
  j.key("net.link_busy").num(std::uint64_t(st.link_busy_total()));
  j.key("net.link_max_queue").num(std::uint64_t(st.link_max_queue_depth()));
  j.key("net.fault.retries").num(f.retries);
  j.key("net.fault.nacks").num(f.nacks);
  j.key("net.fault.reroutes").num(f.reroutes);
  j.key("net.fault.hard_errors").num(f.hard_errors);
  j.key("net.fault.rehomes").num(f.rehomes);
  j.key("net.fault.dir_rebuilds").num(f.dir_rebuilds);
  j.key("net.fault.data_losses").num(f.data_losses);
  j.key("protocols.events").num(traced.events);
  j.key("protocols.events_per_ref").num(ratio(double(traced.events), refs));
  j.key("protocols.decisions").num(decisions);
  j.key("protocols.suppressed").num(suppressed);
  j.key("harness.verify_s").num(plain.verify_s);
  j.key("harness.teardown_s").num(plain.teardown_s);
  j.close('}');
  write_digest(j, "digest", traced.result);
  write_digest(j, "plain_digest", plain.result);
}

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench_dsm: %s\nusage: perfbench_dsm --workload "
               "raytrace-migrep|mesh64-chaos "
               "--op harness|traced --seed N\n",
               msg.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* arg) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(arg, &end, 10);
  if (end == arg || *end != '\0') usage(std::string("bad ") + flag);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, op;
  std::uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage("missing value");
    const char* flag = argv[i];
    const char* arg = argv[i + 1];
    if (!std::strcmp(flag, "--workload")) {
      workload = arg;
    } else if (!std::strcmp(flag, "--op")) {
      op = arg;
    } else if (!std::strcmp(flag, "--seed")) {
      seed = parse_u64(flag, arg);
      have_seed = true;
    } else {
      usage(std::string("unknown flag ") + flag);
    }
  }
  if (!have_seed) usage("--seed is required");
  // run_one reads these to swap in the sharded engine; the benchmark
  // measures the serial one whatever the caller's environment says.
  for (const char* var :
       {"DSM_SHARDS", "DSM_SHARD_THREADS", "DSM_SHARD_OVERLAP"})
    unsetenv(var);
  const std::optional<RunSpec> spec = workload_spec(workload, seed);
  if (!spec) usage("unknown workload '" + workload + "'");

  Json j;
  j.open('{');
  j.key("op").str(op);
  j.key("compiler").str(PERFBENCH_COMPILER);
  j.key("build_type").str(PERFBENCH_BUILD_TYPE);
  if (op == "harness")
    op_harness(j, *spec);
  else if (op == "traced")
    op_traced(j, *spec);
  else
    usage("unknown op '" + op + "'");
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  j.key("peak_rss_mb").num(double(ru.ru_maxrss) / 1024.0);
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}
