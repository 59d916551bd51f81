// Outside-in benchmark of the extended FOGBUSTER flow (paper Figure 4).
//
// The benchmark rebuilds Fogbuster::run() from its public building blocks —
// make_empty_result, reset_run_state, then generate_for_fault and
// merge_targeted per fault in canonical order — and times every call from
// outside with the calling thread's CPU clock. It runs in one process on
// one thread; the run/ layer (sweeps, thread pool, fault sharding) is out
// of scope. Every run also checks its own output:
//   * every emitted test re-verifies through core::verify_sequence;
//   * tested + untestable + aborted equals the fault count;
//   * the rows equal Fogbuster::run() on the same context.
//
// Usage:
//   atpg_bench --workload tail_paper|mid_paper|mid_nodrop --seed N
//              --seconds S --trace 0|1 [--circuit-seed N] [--spans FILE]
//
// --seed shuffles the order in which the workload's circuits are set up
// and run; it moves no verdict and no amount of work, so runs at different
// seeds measure the same workload. --circuit-seed 0 (the default) is the
// frozen Table 3 catalog; N > 0 regenerates every non-exact circuit with
// its profile seed mixed with N (held-out circuits: the workload's size
// changes, so compare commits only at equal values). Every run makes two
// timed passes; --seconds caps the measured CPU time of further passes.
//
// The last line of stdout is one JSON object,
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics under --trace 0. The flow's time is reported
// as cpu_ref_s: thread CPU seconds per pass, rescaled to a reference host
// speed by a fixed kernel sampled between the flow's calls (see
// reference_kernel_s); the raw seconds go to stderr. A --trace 1 run is a
// separate run: its first pass records spans, layer probes follow the
// flow, it reports the per-layer metrics and writes the spans as JSON
// lines to --spans.
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/error.hpp"
#include "circuits/catalog.hpp"
#include "circuits/generator.hpp"
#include "circuits/profiles.hpp"
#include "core/context.hpp"
#include "core/fogbuster.hpp"
#include "core/verify.hpp"
#include "semilet/propagate.hpp"
#include "semilet/synchronize.hpp"
#include "tdgen/local_test.hpp"
#include "tdgen/tdgen.hpp"

namespace {

using namespace gdf;

// ---------------------------------------------------------------- clocks

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double seconds_of(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  std::vector<std::string> circuits;
  bool fault_dropping;
};

const std::vector<Workload>& workloads() {
  static const std::vector<std::string> mid = {
      "s27",  "s208", "s298", "s344", "s349", "s386",
      "s420", "s641", "s713", "s838", "c17"};
  static const std::vector<Workload> all = {
      {"tail_paper", {"s1196", "s1238"}, true},
      {"mid_paper", mid, true},
      {"mid_nodrop", mid, false},
  };
  return all;
}

/// SplitMix64 finalizer: the seed-mixing rule.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Circuit seed 0 is the frozen Table 3 catalog. Any other value
/// regenerates each non-exact profile from mix64(profile seed ^ mix64(N));
/// s27 and c17 are shipped verbatim and stay exact.
net::Netlist load_workload_circuit(const std::string& name,
                                   std::uint64_t circuit_seed) {
  if (circuit_seed == 0 || name == "s27" || name == "c17") {
    return circuits::load_circuit(name);
  }
  circuits::BenchmarkProfile profile = circuits::profile_for(name);
  profile.seed = mix64(profile.seed ^ mix64(circuit_seed));
  return circuits::generate_iscas_like(profile);
}

/// The paper configuration: robust algebra, 100 local and 100 sequential
/// backtracks, default learning, X-fill seed 1995; only fault dropping
/// differs between workloads.
core::AtpgOptions workload_options(const Workload& w) {
  core::AtpgOptions options;
  options.fault_dropping = w.fault_dropping;
  return options;
}

/// The run's input order: the workload's circuits shuffled by --seed
/// (Fisher-Yates over mix64). Every circuit gets its own context and
/// Fogbuster, so the order moves no verdict and no count — the seeds
/// vary the inputs' order, not the amount of work.
std::vector<std::string> circuit_order(const Workload& w, std::uint64_t seed) {
  std::vector<std::string> names = w.circuits;
  std::uint64_t state = mix64(seed);
  for (std::size_t i = names.size(); i > 1; --i) {
    state = mix64(state);
    std::swap(names[i - 1], names[state % i]);
  }
  return names;
}

// -------------------------------------------------------- host reference

/// The reference kernel's typical thread CPU time on the 4-vCPU Xeon the
/// bounds were calibrated on: the speed cpu_ref_s is rescaled to.
constexpr double kReferenceKernelS = 0.030;

volatile std::uint64_t reference_sink = 0;

/// A fixed kernel of hash-map updates and a sort over a few MiB, allocator
/// included. On a shared host its thread CPU time moves with the cache and
/// memory contention from other tenants the way the flow's does: over
/// 15 s windows the two correlated at 0.94, while a pure ALU loop barely
/// moved. It is the benchmark's own code, so no change to the program
/// moves it.
double reference_kernel_s() {
  const std::int64_t t0 = cpu_ns();
  std::uint64_t sink = 0;
  for (std::uint64_t rep = 1; rep <= 3; ++rep) {
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    map.reserve(1 << 15);
    std::vector<std::uint32_t> keys(1 << 16);
    std::uint64_t x = rep;
    for (std::uint32_t& k : keys) {
      x = mix64(x);
      k = static_cast<std::uint32_t>(x);
    }
    for (int i = 0; i < 40000; ++i) {
      x = mix64(x);
      map[x & 0xFFFF] += x;
      const auto it = map.find(mix64(x) & 0xFFFF);
      if (it != map.end()) {
        sink += it->second;
      }
    }
    std::sort(keys.begin(), keys.end());
    sink += keys[keys.size() / 2] + map.size();
  }
  reference_sink = sink;
  return seconds_of(cpu_ns() - t0);
}

/// Runs the reference kernel between flow calls, about once per second of
/// CPU time, so its samples cover the host conditions the flow ran in.
class HostSampler {
 public:
  void sample() {
    samples_.push_back(reference_kernel_s());
    last_ns_ = cpu_ns();
  }
  void tick() {
    if (cpu_ns() - last_ns_ >= 1000000000) {
      sample();
    }
  }
  /// Mean kernel time over the run (0 before the first sample).
  double mean_s() const {
    double sum = 0.0;
    for (const double v : samples_) {
      sum += v;
    }
    return samples_.empty() ? 0.0 : sum / static_cast<double>(samples_.size());
  }

 private:
  std::vector<double> samples_;
  std::int64_t last_ns_ = 0;
};

// ----------------------------------------------------------------- spans

/// One timed interval on the thread CPU clock. Spans of one fault share
/// `fault` (its canonical index; -1 for circuit-level spans).
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;  ///< index into the span vector, -1 for a root
  int circuit;
  long fault;
};

/// In-memory span recorder; written out once at the end of the run.
class Tracer {
 public:
  int begin(const char* name, int parent, int circuit, long fault) {
    spans_.push_back({name, cpu_ns(), 0, parent, circuit, fault});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int span) { spans_[span].end_ns = cpu_ns(); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: duration minus the time covered by direct
  /// children (children never overlap on one thread).
  std::map<std::string, double> self_seconds() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[s.parent] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name] += seconds_of(s.end_ns - s.start_ns - child_ns[i]);
    }
    return out;
  }

  bool write_jsonl(const std::string& path,
                   const std::vector<std::string>& circuit_names) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"circuit\":\"%s\","
                   "\"fault\":%ld}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   s.circuit >= 0 ? circuit_names[s.circuit].c_str() : "",
                   s.fault);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

// ----------------------------------------------------------------- setup

struct SetupTimes {
  double load_s = 0.0;
  double build_s = 0.0;
  double algebra_s = 0.0;
  double fogbuster_s = 0.0;
  /// The reference kernel, run in the same process right after the set-up.
  double ref_kernel_s = 0.0;
  double total() const { return load_s + build_s + algebra_s + fogbuster_s; }
  /// The set-up at the reference host speed (see reference_kernel_s).
  /// A fresh process's set-up is page-fault and cold-cache bound, and a
  /// kernel run right after it in that process tracks it: over 120
  /// fresh-process samples they correlated at 0.87.
  double total_ref() const {
    return total() * kReferenceKernelS / ref_kernel_s;
  }
};

struct Circuit {
  std::string name;
  std::shared_ptr<const core::CircuitContext> ctx;
  std::unique_ptr<core::Fogbuster> fogbuster;
  std::string error;  ///< non-empty when setup failed
};

/// Loads, builds and constructs every circuit of the workload, adding the
/// CPU time of each step to `times`.
std::vector<Circuit> set_up(const std::vector<std::string>& names,
                            const core::AtpgOptions& options,
                            std::uint64_t circuit_seed, SetupTimes* times,
                            Tracer* tracer) {
  std::vector<Circuit> out;
  for (std::size_t c = 0; c < names.size(); ++c) {
    Circuit circuit;
    circuit.name = names[c];
    const int ci = static_cast<int>(c);
    try {
      const int load_span =
          tracer != nullptr ? tracer->begin("circuits.load", -1, ci, -1) : -1;
      std::int64_t t0 = cpu_ns();
      const net::Netlist nl = load_workload_circuit(circuit.name, circuit_seed);
      std::int64_t t1 = cpu_ns();
      if (tracer != nullptr) {
        tracer->end(load_span);
      }
      times->load_s += seconds_of(t1 - t0);

      const int build_span =
          tracer != nullptr ? tracer->begin("context.build", -1, ci, -1) : -1;
      t0 = cpu_ns();
      circuit.ctx = core::CircuitContext::build(nl, options);
      t1 = cpu_ns();
      circuit.ctx->algebra(options.mode);
      const std::int64_t t2 = cpu_ns();
      circuit.fogbuster =
          std::make_unique<core::Fogbuster>(circuit.ctx, options);
      const std::int64_t t3 = cpu_ns();
      if (tracer != nullptr) {
        tracer->end(build_span);
      }
      times->build_s += seconds_of(t1 - t0);
      times->algebra_s += seconds_of(t2 - t1);
      times->fogbuster_s += seconds_of(t3 - t2);
    } catch (const std::exception& e) {
      circuit.error = e.what();
    }
    out.push_back(std::move(circuit));
  }
  return out;
}

/// Times one set-up in a fresh process: re-executes this binary in its
/// set-up-only mode (--setup-sample), so every sample pays the first-use
/// costs a user pays (process-wide algebra tables, cold heap) whatever
/// this process has built already. Returns false when the child fails.
bool fresh_process_setup(const std::string& workload, std::uint64_t seed,
                         std::uint64_t circuit_seed, SetupTimes* out) {
  int fds[2];
  if (pipe(fds) != 0) {
    return false;
  }
  const std::string seed_arg = std::to_string(seed);
  const std::string circuit_seed_arg = std::to_string(circuit_seed);
  const char* argv[] = {"atpg_bench",      "--setup-sample",
                        "1",               "--workload",
                        workload.c_str(),  "--seed",
                        seed_arg.c_str(),  "--circuit-seed",
                        circuit_seed_arg.c_str(), nullptr};
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv("/proc/self/exe", const_cast<char* const*>(argv));
    _exit(127);
  }
  close(fds[1]);
  std::string text;
  char buf[256];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  return WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0 &&
         std::sscanf(text.c_str(), "%lf %lf %lf %lf %lf", &out->load_s,
                     &out->build_s, &out->algebra_s, &out->fogbuster_s,
                     &out->ref_kernel_s) == 5 &&
         out->ref_kernel_s > 0.0;
}

// ------------------------------------------------------------------ flow

struct FlowPass {
  core::FogbusterResult result;
  std::vector<bool> targeted;        ///< canonical index -> was generated
  std::vector<double> generate_ms;   ///< per generate_for_fault call
  double generate_s = 0.0;
  double merge_s = 0.0;
  double loop_s = 0.0;  ///< the whole targeting loop, bookkeeping included
  double cpu_s() const { return generate_s + merge_s; }
};

/// Fogbuster::run() rebuilt outside-in: the per-fault loop of the product
/// flow, with every call timed on the thread CPU clock. With a tracer,
/// each targeted fault gets a "fault" span with "fogbuster.generate" and
/// "fogbuster.merge" children, all carrying the fault's canonical index.
/// A sampler runs its kernel between faults, outside every timed call.
FlowPass run_flow(core::Fogbuster& fb, int circuit, Tracer* tracer,
                  HostSampler* sampler) {
  FlowPass pass;
  const std::int64_t loop_start = cpu_ns();
  pass.result = fb.make_empty_result();
  fb.reset_run_state();
  core::FogbusterResult& result = pass.result;
  pass.targeted.assign(result.faults.size(), false);
  std::int64_t generate_ns = 0;
  std::int64_t merge_ns = 0;
  for (std::size_t i = 0; i < result.faults.size(); ++i) {
    if (result.status[i] != core::FaultStatus::Untested) {
      continue;
    }
    pass.targeted[i] = true;
    core::TestSequence sequence;
    core::StageStats stages;
    const long fault = static_cast<long>(i);
    if (tracer != nullptr) {
      const int fault_span = tracer->begin("fault", -1, circuit, fault);
      const int g = tracer->begin("fogbuster.generate", fault_span, circuit,
                                  fault);
      const core::FaultStatus status =
          fb.generate_for_fault(result.faults[i], &sequence, &stages);
      tracer->end(g);
      const int m =
          tracer->begin("fogbuster.merge", fault_span, circuit, fault);
      fb.merge_targeted(i, false, status, sequence, stages, &result);
      tracer->end(m);
      tracer->end(fault_span);
      const std::vector<Span>& spans = tracer->spans();
      const std::int64_t g_ns = spans[g].end_ns - spans[g].start_ns;
      generate_ns += g_ns;
      merge_ns += spans[m].end_ns - spans[m].start_ns;
      pass.generate_ms.push_back(static_cast<double>(g_ns) * 1e-6);
    } else {
      const std::int64_t t0 = cpu_ns();
      const core::FaultStatus status =
          fb.generate_for_fault(result.faults[i], &sequence, &stages);
      const std::int64_t t1 = cpu_ns();
      fb.merge_targeted(i, false, status, sequence, stages, &result);
      const std::int64_t t2 = cpu_ns();
      generate_ns += t1 - t0;
      merge_ns += t2 - t1;
      pass.generate_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    }
    if (sampler != nullptr) {
      sampler->tick();
    }
  }
  pass.generate_s = seconds_of(generate_ns);
  pass.merge_s = seconds_of(merge_ns);
  pass.loop_s = seconds_of(cpu_ns() - loop_start);
  return pass;
}

bool same_rows(const core::FogbusterResult& a, const core::FogbusterResult& b) {
  if (a.status != b.status || a.pattern_count != b.pattern_count ||
      a.tests.size() != b.tests.size() ||
      a.stages.targeted != b.stages.targeted ||
      a.stages.dropped != b.stages.dropped) {
    return false;
  }
  for (std::size_t t = 0; t < a.tests.size(); ++t) {
    if (!(a.tests[t].target == b.tests[t].target) ||
        a.tests[t].all_frames() != b.tests[t].all_frames()) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------- probes

/// Layer probes, run after the flow pass: each public search entry point
/// timed from outside up to its first verdict.
struct Probes {
  double tdgen_s = 0.0;
  long tdgen_runs = 0;
  long tdgen_found = 0;
  long tdgen_aborted = 0;
  double propagate_s = 0.0;
  long propagate_runs = 0;
  long propagate_success = 0;
  double sync_s = 0.0;
  long sync_runs = 0;
  long sync_success = 0;
};

void probe_fault(const core::CircuitContext& ctx,
                 const core::AtpgOptions& options,
                 const tdgen::DelayFault& fault, Probes* p) {
  const alg::DelayAlgebra& algebra = ctx.algebra(options.mode);
  // The flow's TdgenOptions (see Fogbuster::generate_for_fault).
  tdgen::TdgenOptions local_options = options.local;
  local_options.learn = options.learn != core::LearnMode::Off;
  local_options.learned_limit = options.learned_limit;

  tdgen::LocalTest local;
  std::int64_t t0 = cpu_ns();
  tdgen::TdgenStatus status;
  {
    tdgen::TdgenSearch search(ctx.model(), algebra, fault, local_options);
    status = search.next(&local);
  }
  p->tdgen_s += seconds_of(cpu_ns() - t0);
  ++p->tdgen_runs;
  switch (status) {
    case tdgen::TdgenStatus::TestFound:
      ++p->tdgen_found;
      break;
    case tdgen::TdgenStatus::Untestable:
      return;
    case tdgen::TdgenStatus::Aborted:
      ++p->tdgen_aborted;
      return;
  }

  const std::vector<int> s0 = tdgen::required_initial_state(local);
  std::vector<std::pair<std::size_t, sim::Lv>> requirements;
  for (std::size_t k = 0; k < s0.size(); ++k) {
    if (s0[k] >= 0) {
      requirements.emplace_back(k, s0[k] == 1 ? sim::Lv::One : sim::Lv::Zero);
    }
  }
  {
    semilet::Budget budget(options.sequential);
    t0 = cpu_ns();
    semilet::Synchronizer synchronizer(ctx.flat(), budget);
    semilet::SyncResult sync;
    const semilet::SeqStatus s =
        synchronizer.synchronize(std::move(requirements), &sync);
    p->sync_s += seconds_of(cpu_ns() - t0);
    ++p->sync_runs;
    p->sync_success += s == semilet::SeqStatus::Success ? 1 : 0;
  }

  if (local.observed_at_po) {
    return;
  }
  const std::size_t n_ff = ctx.netlist().dffs().size();
  sim::StateVec boundary(n_ff, sim::Lv::X);
  std::vector<bool> assignable(n_ff, false);
  for (std::size_t k = 0; k < n_ff; ++k) {
    switch (tdgen::classify_ppo(local.ppo_sets[k])) {
      case tdgen::PpoKind::Known0:
        boundary[k] = sim::Lv::Zero;
        break;
      case tdgen::PpoKind::Known1:
        boundary[k] = sim::Lv::One;
        break;
      case tdgen::PpoKind::FaultD:
        boundary[k] = sim::Lv::D;
        break;
      case tdgen::PpoKind::FaultDbar:
        boundary[k] = sim::Lv::Dbar;
        break;
      case tdgen::PpoKind::Unknown:
        assignable[k] = true;
        break;
    }
  }
  semilet::Budget budget(options.sequential);
  t0 = cpu_ns();
  semilet::Propagator propagator(ctx.flat(), budget);
  propagator.start(std::move(boundary), std::move(assignable));
  semilet::PropagationOutcome outcome;
  const semilet::SeqStatus s = propagator.next(&outcome);
  p->propagate_s += seconds_of(cpu_ns() - t0);
  ++p->propagate_runs;
  p->propagate_success += s == semilet::SeqStatus::Success ? 1 : 0;
}

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t circuit_seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  bool setup_sample = false;  ///< child mode of fresh_process_setup
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      throw Error("missing value for " + arg);
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::stoull(value);
    } else if (arg == "--circuit-seed") {
      a.circuit_seed = std::stoull(value);
    } else if (arg == "--seconds") {
      a.seconds = std::stod(value);
    } else if (arg == "--trace") {
      check(value == "0" || value == "1", "--trace expects 0 or 1");
      a.trace = value == "1";
    } else if (arg == "--spans") {
      a.spans_path = value;
    } else if (arg == "--setup-sample") {
      a.setup_sample = value == "1";
    } else {
      throw Error("unknown argument " + arg);
    }
  }
  check(have_workload, "--workload is required");
  return a;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) {
      return w;
    }
  }
  throw Error("unknown workload '" + name + "'");
}

int bench_main(const Args& args) {
  const Workload& w = find_workload(args.workload);
  const core::AtpgOptions options = workload_options(w);
  const std::vector<std::string> names = circuit_order(w, args.seed);

  if (args.setup_sample) {
    SetupTimes t;
    for (const Circuit& c :
         set_up(names, options, args.circuit_seed, &t, nullptr)) {
      if (!c.error.empty()) {
        std::fprintf(stderr, "atpg_bench: %s: %s\n", c.name.c_str(),
                     c.error.c_str());
        return 1;
      }
    }
    t.ref_kernel_s = reference_kernel_s();
    std::printf("%.9g %.9g %.9g %.9g %.9g\n", t.load_s, t.build_s,
                t.algebra_s, t.fogbuster_s, t.ref_kernel_s);
    return 0;
  }

  // Set-up samples: this process's own set-up plus fresh-process samples
  // taken before it and between the passes' circuits, so they span the
  // run's host conditions. setup_s is the median of their totals at the
  // reference host speed.
  std::vector<SetupTimes> setups;
  const auto sample_setups = [&](int samples) {
    for (int k = 0; k < samples; ++k) {
      SetupTimes t;
      if (fresh_process_setup(args.workload, args.seed, args.circuit_seed,
                              &t)) {
        setups.push_back(t);
      }
    }
  };
  sample_setups(3);
  Tracer tracer;
  SetupTimes own_setup;
  std::vector<Circuit> circuits = set_up(names, options, args.circuit_seed,
                                         &own_setup,
                                         args.trace ? &tracer : nullptr);
  own_setup.ref_kernel_s = reference_kernel_s();
  setups.push_back(own_setup);
  const auto setup_median = [&](double (*get)(const SetupTimes&)) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) {
      v.push_back(get(t));
    }
    return median(v);
  };

  // Timed passes over the whole workload; every pass does the same work,
  // so cpu_s is the CPU time per pass (total over passes / passes), and
  // cpu_ref_s rescales it by the reference kernel sampled in between.
  // Pass 1 is the outside-in composition (traced under --trace 1); pass 2
  // is Fogbuster::run() on the same context, timed as one call, and its
  // rows must equal pass 1's. The two alternate per circuit so both see
  // the same host conditions (the tracing overhead is their difference).
  // Untraced runs then add outside-in passes while one more as long as
  // the last still fits in --seconds.
  Tracer* pass_tracer = args.trace ? &tracer : nullptr;
  // The traced pass takes no in-loop samples: its loop time is the traced
  // CPU time that trace.overhead_s compares.
  HostSampler host;
  HostSampler* flow_sampler = args.trace ? nullptr : &host;
  host.sample();
  std::vector<FlowPass> flow(circuits.size());
  std::vector<double> pass_cpu(2, 0.0);
  double traced_loop_s = 0.0;  // pass 1's loops, bookkeeping included
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    if (!circuits[c].error.empty()) {
      continue;
    }
    try {
      flow[c] = run_flow(*circuits[c].fogbuster, static_cast<int>(c),
                         pass_tracer, flow_sampler);
      traced_loop_s += flow[c].loop_s;
      pass_cpu[0] += flow[c].cpu_s();
      host.sample();
      core::Fogbuster reference(circuits[c].ctx, options);
      const std::int64_t t0 = cpu_ns();
      const core::FogbusterResult rows = reference.run();
      pass_cpu[1] += seconds_of(cpu_ns() - t0);
      host.sample();
      check(same_rows(rows, flow[c].result),
            "rows differ from Fogbuster::run()");
    } catch (const std::exception& e) {
      circuits[c].error = e.what();
    }
    sample_setups(2);
  }
  std::fprintf(stderr, "atpg_bench: %s: outside-in %.3f s, run() %.3f s\n",
               w.name, pass_cpu[0], pass_cpu[1]);
  double measured = pass_cpu[0] + pass_cpu[1];
  while (!args.trace && pass_cpu.back() > 0.0 &&
         measured + pass_cpu.back() <= args.seconds) {
    double pass_s = 0.0;
    for (std::size_t c = 0; c < circuits.size(); ++c) {
      if (!circuits[c].error.empty()) {
        continue;
      }
      try {
        const FlowPass pass = run_flow(*circuits[c].fogbuster,
                                       static_cast<int>(c), nullptr, &host);
        pass_s += pass.cpu_s();
        check(same_rows(pass.result, flow[c].result),
              "rows differ between timed passes");
      } catch (const std::exception& e) {
        circuits[c].error = e.what();
      }
    }
    pass_cpu.push_back(pass_s);
    measured += pass_s;
    std::fprintf(stderr, "atpg_bench: %s: pass %zu: %.3f s\n", w.name,
                 pass_cpu.size(), pass_s);
    sample_setups(3);
  }
  double cpu_s = 0.0;
  for (const double p : pass_cpu) {
    cpu_s += p / static_cast<double>(pass_cpu.size());
  }
  // CPU seconds per pass at the reference host speed.
  const double cpu_ref_s = cpu_s * kReferenceKernelS / host.mean_s();
  std::fprintf(stderr, "atpg_bench: %s: %.3f s per pass, reference kernel "
               "%.2f ms, %.3f reference s per pass\n", w.name, cpu_s,
               1e3 * host.mean_s(), cpu_ref_s);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  long attempted = 0;
  long failed = 0;
  bool correct = true;
  long faults_total = 0;
  long tested = 0;
  long untestable = 0;
  long verify_failures = 0;
  double verify_s = 0.0;
  std::vector<double> generate_ms;
  core::StageStats stages;
  std::size_t patterns = 0;
  std::size_t tests = 0;
  Probes probes;

  for (std::size_t c = 0; c < circuits.size(); ++c) {
    Circuit& circuit = circuits[c];
    const int ci = static_cast<int>(c);
    const long faults =
        circuit.ctx ? static_cast<long>(circuit.ctx->faults().size())
                    : 1;  // an unloadable circuit counts as one failure
    attempted += faults;
    try {
      if (!circuit.error.empty()) {
        throw Error(circuit.error);
      }
      if (args.trace) {
        generate_ms.insert(generate_ms.end(), flow[c].generate_ms.begin(),
                           flow[c].generate_ms.end());
      }
      const FlowPass& pass = flow[c];
      const core::FogbusterResult& result = pass.result;

      // Check 1: every emitted test re-verifies independently.
      const alg::DelayAlgebra& algebra = circuit.ctx->algebra(options.mode);
      long circuit_failures = 0;
      for (const core::TestSequence& test : result.tests) {
        const int span =
            args.trace ? tracer.begin("verify.sequence", -1, ci, -1) : -1;
        const std::int64_t t0 = cpu_ns();
        const core::VerifyReport report =
            core::verify_sequence(circuit.ctx->model(), algebra, test);
        verify_s += seconds_of(cpu_ns() - t0);
        if (args.trace) {
          tracer.end(span);
        }
        if (!report.ok) {
          ++verify_failures;
          ++circuit_failures;
          std::fprintf(stderr, "atpg_bench: %s: test fails verification: %s\n",
                       circuit.name.c_str(), report.reason.c_str());
        }
      }
      // Check 2: every fault has a verdict.
      const long t = result.tested();
      const long u = result.untestable();
      const long without = faults - t - u - result.aborted();
      if (without != 0) {
        std::fprintf(stderr, "atpg_bench: %s: %ld faults without a verdict\n",
                     circuit.name.c_str(), without);
        circuit_failures += without;
      }
      failed += std::min(circuit_failures, faults);
      faults_total += faults;
      tested += t;
      untestable += u;
      stages.add(result.stages);
      patterns += result.pattern_count;
      tests += result.tests.size();

      if (args.trace) {
        for (std::size_t i = 0; i < result.faults.size(); ++i) {
          if (pass.targeted[i]) {
            probe_fault(*circuit.ctx, options, result.faults[i], &probes);
          }
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "atpg_bench: %s: %s\n", circuit.name.c_str(),
                   e.what());
      failed += faults;
      correct = false;
    }
  }
  correct = correct && failed == 0;

  std::vector<Metric> m;
  if (!args.trace) {
    const double total = static_cast<double>(faults_total);
    m = {
        {"cpu_ref_s", cpu_ref_s, "s"},
        {"setup_s",
         setup_median([](const SetupTimes& t) { return t.total_ref(); }),
         "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"fault_coverage_pct", 100.0 * ratio(tested, total), "%"},
        {"fault_efficiency_pct", 100.0 * ratio(tested + untestable, total),
         "%"},
    };
  } else {
    const std::map<std::string, double> self = tracer.self_seconds();
    const auto self_of = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    const tdgen::SearchCounters& s = stages.search;
    const double generate_s = self_of("fogbuster.generate");
    const double merge_s = self_of("fogbuster.merge");
    m = {
        {"circuits.load_s",
         setup_median([](const SetupTimes& t) { return t.load_s; }), "s"},
        {"context.build_s",
         setup_median([](const SetupTimes& t) { return t.build_s; }), "s"},
        {"context.algebra_s",
         setup_median([](const SetupTimes& t) { return t.algebra_s; }), "s"},
        {"context.fogbuster_s",
         setup_median([](const SetupTimes& t) { return t.fogbuster_s; }), "s"},
        {"context.faults", static_cast<double>(faults_total), "count"},
        {"fogbuster.generate_s", generate_s, "s"},
        {"fogbuster.generate_calls", static_cast<double>(generate_ms.size()),
         "count"},
        {"fogbuster.generate_ms_p50", percentile(generate_ms, 50.0), "ms"},
        {"fogbuster.generate_ms_p99", percentile(generate_ms, 99.0), "ms"},
        {"fogbuster.merge_s", merge_s, "s"},
        {"fogbuster.patterns", static_cast<double>(patterns), "count"},
        {"fogbuster.aborted_local", static_cast<double>(stages.aborted_local),
         "count"},
        {"fogbuster.aborted_sequential",
         static_cast<double>(stages.aborted_sequential), "count"},
        {"fogbuster.verify_rejections",
         static_cast<double>(stages.verify_rejections), "count"},
        {"fogbuster.loop_self_s", self_of("fault"), "s"},
        {"tdgen.search_s", probes.tdgen_s, "s"},
        {"tdgen.search_found_ratio",
         ratio(probes.tdgen_found, probes.tdgen_runs), "ratio"},
        {"tdgen.search_aborted_ratio",
         ratio(probes.tdgen_aborted, probes.tdgen_runs), "ratio"},
        {"tdgen.trail_pushes", static_cast<double>(s.trail_pushes), "count"},
        {"tdgen.implications", static_cast<double>(s.implication_assigns),
         "count"},
        {"tdgen.reentries", static_cast<double>(stages.reentries), "count"},
        {"tdgen.reentry_success_ratio",
         1.0 - ratio(stages.reentry_failures, stages.reentries), "ratio"},
        {"tdgen.probe_runs", static_cast<double>(s.probe_runs), "count"},
        {"tdgen.probe_full", static_cast<double>(s.probe_full), "count"},
        {"tdgen.probe_memo_hits", static_cast<double>(s.probe_memo_hits),
         "count"},
        {"tdgen.conflicts", static_cast<double>(s.conflicts), "count"},
        {"tdgen.learned", static_cast<double>(s.learned), "count"},
        {"tdgen.restarts", static_cast<double>(s.restarts), "count"},
        {"tdgen.clause_reductions", static_cast<double>(s.clause_reductions),
         "count"},
        {"semilet.propagate_s", probes.propagate_s, "s"},
        {"semilet.sync_s", probes.sync_s, "s"},
        {"semilet.prop_attempts", static_cast<double>(stages.prop_attempts),
         "count"},
        {"semilet.prop_success_ratio",
         ratio(probes.propagate_success, probes.propagate_runs), "ratio"},
        {"semilet.sync_attempts", static_cast<double>(stages.sync_attempts),
         "count"},
        {"semilet.sync_success_ratio",
         1.0 - ratio(stages.sync_failures, stages.sync_attempts), "ratio"},
        {"semilet.sync_probe_success_ratio",
         ratio(probes.sync_success, probes.sync_runs), "ratio"},
        {"faultsim.dropped", static_cast<double>(stages.dropped), "count"},
        {"faultsim.dropped_per_test",
         ratio(stages.dropped, static_cast<double>(tests)), "count/test"},
        {"sim.evals_scalar", static_cast<double>(stages.sim.scalar_evals),
         "count"},
        {"sim.evals_w64", static_cast<double>(stages.sim.lane_evals_64),
         "count"},
        {"sim.evals_w256", static_cast<double>(stages.sim.lane_evals_256),
         "count"},
        {"sim.evals_w512", static_cast<double>(stages.sim.lane_evals_512),
         "count"},
        {"verify.s", verify_s, "s"},
        {"verify.failures", static_cast<double>(verify_failures), "count"},
        {"trace.cpu_s_untraced", pass_cpu[1], "s"},
        {"trace.cpu_s_traced", traced_loop_s, "s"},
        {"trace.overhead_s", traced_loop_s - pass_cpu[1], "s"},
        {"trace.spans", static_cast<double>(tracer.spans().size()), "count"},
        {"host.ref_kernel_ms", 1e3 * host.mean_s(), "ms"},
    };
    if (!args.spans_path.empty()) {
      std::vector<std::string> names;
      for (const Circuit& c : circuits) {
        names.push_back(c.name);
      }
      if (!tracer.write_jsonl(args.spans_path, names)) {
        std::fprintf(stderr, "atpg_bench: cannot write %s\n",
                     args.spans_path.c_str());
      }
    }
  }
  print_result(correct, std::max(attempted, 1L), failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return bench_main(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "atpg_bench: %s\n", e.what());
    return 2;
  }
}
