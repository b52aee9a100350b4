// bench_suite — the repository's benchmark: six converged, oracle-checked
// workloads measured on two clocks. Virtual seconds are the model's answer
// (how long the simulated cluster takes); host seconds are what the
// simulator costs to produce it.
//
// One process runs one workload, single-threaded:
//   1. builds five problem instances from --seed (instance 0 from --seed
//      itself), timing each build (setup);
//   2. runs the serial oracle on each instance, timed (the baseline);
//   3. solves in a closed loop with one client, back to back: one warm-up
//      solve of instance 0, then timed solves cycling through the instances
//      until --seconds have passed and each was solved once (or --reps);
//   4. checks every solve: converged, within the oracle tolerance, every
//      counter identical to the instance's first solve, and, for instance 0
//      at seed 42, the anchors stored in the repository's BENCH_* files;
//   5. prints one JSON object of raw measurements, which run.py turns into
//      named metrics.
// Solving five instances is what keeps the host-time metrics steady from
// seed to seed: one graph's convergence depth varies by up to ~10%.
// --traced instead alternates plain solves of instance 0 with solves under
// the SIGPROF sampler (sampler.hpp), and attaches an obs::TraceSink to one
// extra solve for the virtual-time spans. --selftest drives three layers'
// public functions directly under the sampler, so run.py can check that the
// attribution lands in the right module.
//
// Everything is measured from outside the simulator: counters come from each
// layer's public stats after the solve, host time from the calls made here.
// Inputs and every config field a workload relies on are pinned below, not
// taken from bench_common, so refactoring the figure benches cannot shift
// this benchmark.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "common/rng.hpp"
#include "graph/generator.hpp"
#include "graph/partitioner.hpp"
#include "obs/trace.hpp"
#include "sampler.hpp"
#include "serde/serde.hpp"
#include "sim/event_queue.hpp"

using namespace asyncmr;

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Deterministic per-solve outputs, compared exactly across solves.
using Counts = std::vector<std::pair<std::string, double>>;

struct Inputs {
  graph::Digraph g;
  graph::Partitioning part;
  double generate_s = 0.0;   // graph (+ weights) generation
  double partition_s = 0.0;  // graph::MultilevelPartition
};

struct Solve {
  bool converged = false;
  std::vector<double> answer;  // ranks or distances
  Counts counts;
};

/// The serial oracle's answer: ranks or distances.
using Reference = std::vector<double>;

struct Workload {
  const char* name;
  Inputs (*build)(uint64_t seed);
  Solve (*solve)(const Inputs& in, obs::TraceSink* trace);
  Reference (*serial)(const Inputs& in);
  double tolerance;  // max-abs error against the oracle
  /// Stored anchors that instance 0 must reproduce at seed 42 (nullptr / 0 =
  /// none): virtual seconds to 4 decimals, and total iterations.
  const char* anchor_virtual_s;
  double anchor_iterations;
};

// --- inputs ------------------------------------------------------------------

/// The crawl-locality preferential-attachment graph of the paper's Graph A
/// recipe, at `n` vertices.
graph::Digraph CrawlGraph(graph::VertexId n, uint64_t seed) {
  auto config = graph::PrefAttachConfig::PaperGraphA(seed);
  config.num_vertices = n;
  config.locality_window = std::max<graph::VertexId>(8, n / 1000);
  config.max_edge_age = 4 * config.locality_window;
  return graph::PreferentialAttachment(config);
}

/// Generates and partitions a crawl graph. The partitioner sees the
/// unweighted graph; SSSP weights are drawn afterwards, as the ablation
/// bench whose anchors this reproduces does.
Inputs BuildGraph(graph::VertexId n, uint32_t k, bool weighted, uint64_t seed) {
  Inputs in;
  auto t0 = Clock::now();
  in.g = CrawlGraph(n, seed);
  in.generate_s = Since(t0);
  t0 = Clock::now();
  in.part = graph::MultilevelPartition(in.g, k, seed);
  in.partition_s = Since(t0);
  if (weighted) {
    t0 = Clock::now();
    in.g = graph::WithRandomWeights(in.g, 1.0, 10.0, seed + 3);
    in.generate_s += Since(t0);
  }
  return in;
}

// --- counters ------------------------------------------------------------------

/// Reads every layer's public stats after a solve. `a` is null for the wave
/// engines, which report through their RunTrace alone.
Counts Collect(cluster::SimCluster& sim, const core::RunTrace& trace,
               const async::AsyncResult* a) {
  const net::NetworkStats& net = sim.network().stats();
  const dfs::DfsStats& dfs = sim.dfs().stats();
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  const bool wave = a == nullptr;
  return {
      {"apps.solution_vs", wave ? trace.total_seconds() : a->seconds()},
      {"sim.events", d(sim.queue().fired_count())},
      {"net.flows", d(net.flows_started)},
      {"net.rebalances", d(net.rebalances)},
      {"net.rate_updates", d(net.flow_rate_updates)},
      {"net.bytes", d(net.bytes_transferred)},
      {"net.cross_rack_bytes", d(net.bytes_cross_rack)},
      {"net.busy_vs", net.busy_seconds},
      {"net.flows_failed", d(net.flows_failed)},
      {"net.rpc_calls", d(sim.rpc().calls_made())},
      {"dfs.files_written", d(dfs.files_written)},
      {"dfs.bytes_written", d(dfs.bytes_written)},
      {"dfs.bytes_read", d(dfs.bytes_read)},
      {"mr.global_iterations", wave ? d(trace.global_iterations()) : 0.0},
      {"mr.shuffle_bytes", wave ? d(trace.total_shuffle_bytes()) : 0.0},
      {"mr.failed_attempts", wave ? d(trace.total_failed_attempts()) : 0.0},
      {"core.local_iterations", wave ? d(trace.total_local_iterations()) : 0.0},
      {"apps.iterations",
       wave ? d(trace.total_synchronizations()) : d(a->total_iterations)},
      {"apps.ops", wave ? d(trace.total_ops()) : d(a->total_ops)},
      {"async.merge_ops", wave ? 0.0 : d(a->total_merge_ops)},
      {"async.batches", wave ? 0.0 : d(a->update_batches)},
      {"async.records", wave ? 0.0 : d(a->update_records)},
      {"async.bytes", wave ? 0.0 : d(a->bytes_sent)},
      {"async.coalesced_batches", wave ? 0.0 : d(a->coalesced_batches)},
      {"async.token_circuits", wave ? 0.0 : d(a->token_circuits)},
      {"async.checkpoints", wave ? 0.0 : d(a->checkpoints_written)},
      {"async.checkpoint_bytes", wave ? 0.0 : d(a->checkpoint_bytes)},
      {"async.restarts", wave ? 0.0 : d(a->worker_restarts)},
      {"async.mttr_vs", wave ? 0.0 : a->mttr_seconds},
      {"async.staleness_p95", wave ? 0.0 : a->staleness_p95},
  };
}

double CountOf(const Counts& counts, const std::string& name) {
  for (const auto& [key, value] : counts) {
    if (key == name) return value;
  }
  return 0.0;
}

/// Adds `v` to the entry `name`, appending the entry if it is absent.
void Accumulate(Counts& counts, const char* name, double v) {
  auto it = std::find_if(counts.begin(), counts.end(),
                         [&](const auto& kv) { return kv.first == name; });
  if (it == counts.end()) it = counts.insert(counts.end(), {name, 0.0});
  it->second += v;
}

// --- workloads -----------------------------------------------------------------

/// The simulated clusters keep their spec's default seed: the cluster's noise
/// and fault timeline are part of the workload, and --seed draws the inputs.
cluster::ClusterSpec CloudSpec(uint32_t nodes) {
  auto spec = cluster::ClusterSpec::Cloud(nodes);
  spec.topology.fluid_rate_tolerance = 0.05;  // as bench/scale_async runs it
  return spec;
}

Solve SolveAsyncPageRank(cluster::ClusterSpec spec, const Inputs& in,
                         const apps::PageRankConfig& config, uint32_t staleness) {
  cluster::SimCluster sim(std::move(spec));
  async::AsyncResult stats;
  auto r = apps::AsyncPageRank(sim, in.g, in.part, config, staleness, &stats);
  return {r.converged, std::move(r.ranks), Collect(sim, r.trace, &stats)};
}

Reference PageRankOracle(const Inputs& in) {
  return apps::SerialPageRank(in.g, apps::PageRankConfig{});
}

Reference SsspOracle(const Inputs& in) {
  return apps::SerialDijkstra(in.g, apps::SsspConfig{}.source);
}

Inputs AblationGraph(uint64_t seed) { return BuildGraph(50'000, 16, false, seed); }

const Workload kWorkloads[] = {
    {"pr-async-k16", AblationGraph,
     [](const Inputs& in, obs::TraceSink* trace) {
       apps::PageRankConfig config;
       config.async_tuning.obs.trace = trace;
       return SolveAsyncPageRank(cluster::ClusterSpec::Ec2Large8(), in, config,
                                 async::kUnboundedStaleness);
     },
     PageRankOracle, 1e-3, "1.8461", 371},
    {"pr-async-s0-k16", AblationGraph,
     [](const Inputs& in, obs::TraceSink* trace) {
       apps::PageRankConfig config;
       config.async_tuning.obs.trace = trace;
       return SolveAsyncPageRank(cluster::ClusterSpec::Ec2Large8(), in, config, 0);
     },
     PageRankOracle, 1e-3, "1.5841", 0},
    {"pr-eager-k16", AblationGraph,
     [](const Inputs& in, obs::TraceSink* trace) {
       cluster::SimCluster sim(cluster::ClusterSpec::Ec2Large8());
       sim.network().set_trace(trace);
       auto r = apps::EagerPageRank(sim, in.g, in.part, apps::PageRankConfig{});
       return Solve{r.converged, std::move(r.ranks), Collect(sim, r.trace, nullptr)};
     },
     PageRankOracle, 1e-3, "103.1199", 0},
    {"sssp-general-k16",
     [](uint64_t seed) { return BuildGraph(50'000, 16, true, seed); },
     [](const Inputs& in, obs::TraceSink* trace) {
       cluster::SimCluster sim(cluster::ClusterSpec::Ec2Large8());
       sim.network().set_trace(trace);
       auto r = apps::GeneralSssp(sim, in.g, in.part, apps::SsspConfig{});
       return Solve{r.converged, std::move(r.distances), Collect(sim, r.trace, nullptr)};
     },
     SsspOracle, 1e-9, "5187.0772", 0},
    {"pr-async-p384",
     [](uint64_t seed) { return BuildGraph(50'000, 384, false, seed); },
     [](const Inputs& in, obs::TraceSink* trace) {
       apps::PageRankConfig config;
       config.max_global_iterations = 80;
       config.async_tuning.coalesce_batches = true;
       config.async_tuning.adaptive_token_backoff = true;
       config.async_tuning.obs.trace = trace;
       return SolveAsyncPageRank(CloudSpec(48), in, config, async::kUnboundedStaleness);
     },
     PageRankOracle, 1e-3, nullptr, 0},
    {"pr-async-crash",
     [](uint64_t seed) { return BuildGraph(70'000, 100, false, seed); },
     [](const Inputs& in, obs::TraceSink* trace) {
       // bench/ablation_chaos's node-crash-storm scenario.
       auto spec = cluster::ClusterSpec::Ec2Large8();
       spec.node_crash_rate = 0.3;
       spec.rack_crash_rate = 0.05;
       spec.node_repair_s = 0.5;
       spec.worker_restart_delay_s = 0.25;
       apps::PageRankConfig config;
       config.async_tuning.obs.trace = trace;
       return SolveAsyncPageRank(std::move(spec), in, config, async::kUnboundedStaleness);
     },
     PageRankOracle, 1e-3, "2.0669", 0},
};

double OracleError(const Solve& s, const Reference& ref) {
  if (s.answer.size() != ref.size()) return INFINITY;
  double err = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    if (s.answer[i] == ref[i]) continue;  // also equal infinities
    err = std::max(err, std::abs(s.answer[i] - ref[i]));
  }
  return err;
}

/// Why a solve failed, or "" when it passed. `anchored` marks the instance
/// the stored anchors describe (instance 0 at seed 42).
std::string Check(const Workload& w, const Solve& s, const Reference& ref,
                  const Counts& first, bool anchored) {
  if (!s.converged) return "did not converge";
  const double err = OracleError(s, ref);
  if (!(err <= w.tolerance)) {
    return "oracle error " + std::to_string(err) + " above " +
           std::to_string(w.tolerance);
  }
  for (size_t i = 0; i < first.size(); ++i) {
    if (s.counts[i].second != first[i].second) {
      return s.counts[i].first + " differs from the instance's first solve";
    }
  }
  if (anchored && w.anchor_virtual_s != nullptr) {
    char got[32];
    std::snprintf(got, sizeof(got), "%.4f", CountOf(s.counts, "apps.solution_vs"));
    if (std::string(got) != w.anchor_virtual_s) {
      return std::string("virtual_s ") + got + " != anchor " + w.anchor_virtual_s;
    }
  }
  if (anchored && w.anchor_iterations > 0 &&
      CountOf(s.counts, "apps.iterations") != w.anchor_iterations) {
    return "iterations differ from the stored anchor";
  }
  return "";
}

// --- output --------------------------------------------------------------------

std::string Number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);  // all significant digits
  return buf;
}

std::string List(const std::vector<double>& vs) {
  std::string out = "[";
  for (size_t i = 0; i < vs.size(); ++i) out += (i ? "," : "") + Number(vs[i]);
  return out + "]";
}

/// Appends `"key":value` pairs to one JSON object.
class JsonObject {
 public:
  void Num(const std::string& key, double v) { Raw(key, Number(v)); }
  void Nums(const std::string& key, const std::vector<double>& vs) { Raw(key, List(vs)); }
  void Str(const std::string& key, const std::string& v) { Raw(key, '"' + v + '"'); }
  void Strs(const std::string& key, const std::vector<std::string>& vs) {
    std::string out = "[";
    for (size_t i = 0; i < vs.size(); ++i) out += (i ? ",\"" : "\"") + vs[i] + '"';
    Raw(key, out + "]");
  }
  void Map(const std::string& key, const Counts& kvs) {
    JsonObject inner;
    for (const auto& [k, v] : kvs) inner.Num(k, v);
    Raw(key, inner.Finish());
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
  }
  std::string Finish() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- modes ---------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  int reps = 0;  // > 0: exactly this many timed solves, ignoring seconds
  bool traced = false;
  bool selftest = false;
  std::string samples_path;
};

constexpr int kInstances = 5;
/// Traced mode keeps solving until the sampler holds at least this many
/// samples, so module shares rest on enough data at a 250 Hz tick.
constexpr size_t kMinSamples = 1000;

/// Instance 0 is --seed itself, so the stored seed-42 anchors apply to it.
uint64_t InstanceSeed(uint64_t seed, int i) { return i == 0 ? seed : MixSeed(seed, i); }

/// Host-speed probe: a fixed chain of dependent multiply-adds (~45 ms) that
/// runs no simulator code. On a shared machine the host's speed drifts by
/// 15% and more over minutes, and the probe's time drifts with it; run.py
/// divides host times by the probe's median in the same process, which cut
/// the spread of 10-second medians of one solve from 15% to 2%.
double ProbeSeconds() {
  static volatile uint64_t sink = 0;
  const auto t0 = Clock::now();
  uint64_t x = sink + 1;
  for (uint32_t i = 0; i < (1u << 25); ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
  sink = x;
  return Since(t0);
}

int RunWorkload(const Workload& w, const Options& opt) {
  JsonObject out;
  out.Str("workload", w.name);
  out.Num("seed", static_cast<double>(opt.seed));

  std::vector<Inputs> inputs;
  std::vector<Reference> refs;
  std::vector<double> setup_s, generate_s, partition_s, serial_s, probe_s;
  for (int i = 0; i < kInstances; ++i) {
    probe_s.push_back(ProbeSeconds());
    auto t0 = Clock::now();
    inputs.push_back(w.build(InstanceSeed(opt.seed, i)));
    setup_s.push_back(Since(t0));
    generate_s.push_back(inputs.back().generate_s);
    partition_s.push_back(inputs.back().partition_s);
    t0 = Clock::now();
    refs.push_back(w.serial(inputs.back()));
    serial_s.push_back(Since(t0));
  }
  out.Nums("setup_s", setup_s);
  out.Nums("generate_s", generate_s);
  out.Nums("partition_s", partition_s);
  out.Nums("serial_s", serial_s);
  out.Num("cut_fraction", graph::EvaluatePartition(inputs[0].g, inputs[0].part).cut_fraction);

  int attempted = 0;
  std::vector<std::string> failures;
  std::vector<Counts> first(kInstances);
  // Runs one checked solve of instance i, then a speed probe; returns the
  // solve's host seconds.
  auto solve = [&](int i, obs::TraceSink* trace, bool sampled) {
    const auto start = Clock::now();
    if (sampled) suite::ArmSampler();
    Solve s = w.solve(inputs[i], trace);
    if (sampled) suite::DisarmSampler();
    const double wall = Since(start);
    probe_s.push_back(ProbeSeconds());
    ++attempted;
    if (first[i].empty()) first[i] = s.counts;
    if (i == 0 && attempted == 1) out.Num("oracle_err", OracleError(s, refs[0]));
    const std::string why = Check(w, s, refs[i], first[i], i == 0 && opt.seed == 42);
    if (!why.empty()) {
      failures.push_back("solve " + std::to_string(attempted) + " (instance " +
                         std::to_string(i) + "): " + why);
    }
    return wall;
  };

  solve(0, nullptr, false);  // warm-up
  const auto t0 = Clock::now();
  if (!opt.traced) {
    std::vector<std::vector<double>> solve_s(kInstances);
    for (int n = 0; opt.reps > 0 ? n < opt.reps
                                 : n < kInstances || Since(t0) < opt.seconds;
         ++n) {
      const int i = (n + 1) % kInstances;
      solve_s[i].push_back(solve(i, nullptr, false));
    }
    std::string lists = "[";
    for (int i = 0; i < kInstances; ++i) lists += (i ? "," : "") + List(solve_s[i]);
    out.Raw("instance_solve_s", lists + "]");
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    out.Num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  } else {
    obs::TraceSink sink;
    solve(0, &sink, false);
    Counts spans, span_counts;  // by span name: virtual seconds, and spans
    for (const auto& e : sink.events()) {
      if (e.phase != obs::TraceSink::Phase::kSpan) continue;
      Accumulate(spans, e.name, e.dur_s);
      Accumulate(span_counts, e.name, 1.0);
    }
    out.Map("spans", spans);
    out.Map("span_counts", span_counts);
    // Plain and sampled solves of instance 0 alternate, so host drift hits
    // both alike and their ratio is the sampler's overhead. Past --seconds,
    // solving goes on until kMinSamples, up to three times --seconds.
    const size_t first_sample = suite::SampleCount();
    std::vector<double> solve_s, sampled_s;
    auto more = [&] {
      const int done = static_cast<int>(sampled_s.size());
      if (opt.reps > 0 || done == 0) return done < std::max(opt.reps, 1);
      const double t = Since(t0);
      return t < 3 * opt.seconds &&
             (t < opt.seconds || suite::SampleCount() - first_sample < kMinSamples);
    };
    while (more()) {
      solve_s.push_back(solve(0, nullptr, false));
      sampled_s.push_back(solve(0, nullptr, true));
    }
    out.Nums("solve_s", solve_s);
    out.Nums("sampled_solve_s", sampled_s);
    out.Num("samples", static_cast<double>(suite::SampleCount() - first_sample));
    if (!suite::AppendSamples(opt.samples_path, "solve", first_sample)) {
      std::fprintf(stderr, "bench_suite: cannot write %s\n", opt.samples_path.c_str());
      return 1;
    }
  }
  out.Nums("probe_s", probe_s);
  out.Num("attempted", attempted);
  out.Num("failed", static_cast<double>(failures.size()));
  out.Strs("failures", failures);
  out.Map("counts", first[0]);
  std::printf("%s\n", out.Finish().c_str());
  for (const auto& f : failures) std::fprintf(stderr, "%s: %s\n", w.name, f.c_str());
  std::fprintf(stderr, "%s: %d solves in %.1f s, instance 0 virtual %.4f s\n", w.name,
               attempted, Since(t0), CountOf(first[0], "apps.solution_vs"));
  return 0;
}

/// Runs `loop` under the sampler for `seconds` of wall time and appends its
/// samples under `tag`.
bool SampleLoop(const Options& opt, const char* tag, double seconds,
                const std::function<void()>& loop) {
  const size_t first = suite::SampleCount();
  const auto t0 = Clock::now();
  suite::ArmSampler();
  while (Since(t0) < seconds) loop();
  suite::DisarmSampler();
  std::fprintf(stderr, "selftest %s: %zu samples\n", tag, suite::SampleCount() - first);
  return suite::AppendSamples(opt.samples_path, tag, first);
}

/// A self-rescheduling timer: each firing schedules its successor at a
/// pseudo-random delay, so the queue holds a steady population.
struct Tick {
  sim::EventQueue* queue;
  uint64_t* state;
  void operator()() const {
    *state = *state * 6364136223846793005ull + 1442695040888963407ull;
    queue->ScheduleAfter(1e-6 * static_cast<double>((*state >> 40) % 1000 + 1), *this);
  }
};

/// Three layers driven through their public functions, one per loop, so
/// run.py can require that each loop's samples land in its own module.
int RunSelftest(const Options& opt) {
  constexpr double kLoopSeconds = 1.5;

  // sim: timer churn with ~1k pending events.
  sim::EventQueue queue;
  uint64_t state = 1;
  for (int i = 0; i < 1024; ++i) Tick{&queue, &state}();
  bool ok = SampleLoop(opt, "sim", kLoopSeconds, [&] {
    for (int i = 0; i < 4096; ++i) queue.RunOne();
  });

  // serde: encode and decode a vector of (key, value) records.
  std::vector<std::pair<uint32_t, double>> records(512), decoded;
  for (uint32_t i = 0; i < records.size(); ++i) records[i] = {i * 7919u, 0.5 * i};
  serde::Buffer buffer;
  using Records = serde::Serde<std::vector<std::pair<uint32_t, double>>>;
  ok &= SampleLoop(opt, "serde", kLoopSeconds, [&] {
    for (int i = 0; i < 64; ++i) {
      buffer.clear();
      serde::Writer writer(buffer);
      Records::Write(writer, records);
      serde::Reader reader(buffer);
      if (!Records::Read(reader, decoded).ok()) std::abort();
    }
  });

  // graph: the multilevel partitioner on a 20k-vertex crawl graph.
  const graph::Digraph g = CrawlGraph(20'000, opt.seed);
  ok &= SampleLoop(opt, "graph", kLoopSeconds, [&] {
    if (graph::MultilevelPartition(g, 16, opt.seed).num_parts != 16) std::abort();
  });
  std::printf("{\"selftest\":%s}\n", ok ? "true" : "false");
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_suite --workload NAME [--seed N] [--seconds S] "
               "[--reps R] [--traced --samples PATH]\n"
               "       bench_suite --selftest --samples PATH\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--reps" && has_value) {
      opt.reps = std::atoi(argv[++i]);
    } else if (arg == "--samples" && has_value) {
      opt.samples_path = argv[++i];
    } else if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--selftest") {
      opt.selftest = true;
    } else {
      return Usage();
    }
  }
  if ((opt.traced || opt.selftest) && opt.samples_path.empty()) return Usage();
  if (opt.selftest) return RunSelftest(opt);
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) return RunWorkload(w, opt);
  }
  return Usage();
}
