// scale_async — the async engine at cloud scale: P workers in the hundreds to
// thousands on ClusterSpec::Cloud(N) topologies, P >> slots.
//
// The ROADMAP's "Scale experiments" item: the paper's Discussion argues the
// barrier-free advantage *compounds* with cluster size (CluE-scale, heavy
// network delays during copying and merging), and related systems work (ASAP,
// "More Iterations per Second, Same Quality") measures the same curve. This
// bench makes the regime cheap to explore — it exists because the simulator's
// fluid network now rebalances incrementally (O(endpoint degree) per flow
// event instead of O(total flows)), which is what makes P = 1024 tractable.
//
// Sweeps PageRank, SSSP and K-Means at P in {64, 256, 1024, 4096} (window
// set by AMR_MIN_P / AMR_MAX_P — CI smokes P = 64, and the release job smokes
// the P = 4096 cell alone), each P on Cloud(max(8, P/8)) so partitions
// outnumber slots 4:1 throughout. Each cell runs the async engine twice:
// batch coalescing off and on, both with the adaptive token backoff (a fixed
// inter-circuit pause would either spam P-hop token circuits or stall small
// runs). Iteration caps keep cells bounded; converged flags are reported, not
// assumed.
//
// P >= 4096 is the speed tier: those cells run with QueueMode::kCalendar
// (pinned bit-identical to the heap by the CalendarQueue cases in
// tests/test_sim.cpp and end to end in tests/test_async.cpp), and only the
// coalesced PageRank variant runs — the SSSP and K-Means cells, and
// PageRank's uncoalesced variant, are SKIPPED and logged explicitly, not
// silently: at ~12 vertices per partition the apps' fixed per-iteration
// engine traffic dwarfs any convergence signal, and the off-vs-on crossover
// is already established on the 64-1024 rows at ~9x the cell cost. Every
// cell's JSON records which far store produced it (queue_mode).
//
// Output: human-readable rows to stderr, one JSON line per (app, P) cell to
// stdout — append them to BENCH_scale_async.json. Schema (numbers):
//
//   {"bench":"scale_async","schema_version":V,"app":A,"P":N,"nodes":N,
//    "scale":S,"seed":N,"queue_mode":M,
//    "rate_tolerance":T,"off_skipped":B,
//    "off_wall_s":T,"off_virtual_s":T,"off_iters":N,"off_flows":N,
//    "off_net_bytes":N,"off_converged":B,
//    "on_wall_s":T,"on_virtual_s":T,"on_iters":N,"on_flows":N,
//    "on_net_bytes":N,"on_converged":B,
//    "on_coalesced_batches":N,"on_coalesced_bytes_saved":N,
//    "off_rebalances":N,"off_rate_updates":N,"on_rebalances":N,
//    "on_rate_updates":N,"net_busy_s":T,"token_circuits":N}
//
// off_skipped marks cells whose coalescing-off variant was not run: K-Means
// at P = 1024 broadcasts to 1023 peers per worker per iteration, and without
// coalescing that holds ~P^2 concurrent flows in the fluid model — the
// infeasibility coalescing exists to remove, not a measurement.
//
// Honours AMR_SCALE / AMR_SEED / AMR_MIN_P / AMR_MAX_P.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/kmeans.hpp"
#include "bench_common.hpp"
#include "graph/partitioner.hpp"

using namespace asyncmr;

namespace {

double WallSeconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct CellRun {
  double wall_s = 0.0;
  async::AsyncResult stats;
  bool converged = false;
  net::NetworkStats net;
};

struct Cell {
  CellRun off;  // coalescing off
  CellRun on;   // coalescing on
  bool off_skipped = false;
};

/// Relative fluid-model rate tolerance for this sweep (see
/// TopologyConfig::fluid_rate_tolerance): with thousands of concurrent flows
/// a single start/complete moves a node's fair share by a fraction of a
/// percent, and re-rating every incident flow for that is what made large P
/// quadratic. 5% rate staleness is far below the cost-model's own noise
/// (stragglers, jitter) and keeps rebalance work amortized O(1) per event.
constexpr double kRateTolerance = 0.05;

/// From this P up, cells run the speed tier: the calendar far store, pinned
/// bit-identical to the heap, so the trajectory stays comparable across
/// modes.
constexpr uint32_t kSpeedTierP = 4096;

bool InSpeedTier(uint32_t p) { return p >= kSpeedTierP; }

cluster::ClusterSpec CloudSpecFor(uint32_t p) {
  auto spec = cluster::ClusterSpec::Cloud(std::max<uint32_t>(8, p / 8));
  spec.topology.fluid_rate_tolerance = kRateTolerance;
  if (InSpeedTier(p)) spec.queue_mode = sim::QueueMode::kCalendar;
  return spec;
}

async::EngineTuning Tuning(bool coalesce) {
  async::EngineTuning t;
  t.coalesce_batches = coalesce;
  t.adaptive_token_backoff = true;
  return t;
}

void PrintCell(const char* app, uint32_t p, const Cell& c,
               const char* off_skip_reason = "P^2 flows without coalescing") {
  if (c.off_skipped) {
    std::fprintf(
        stderr,
        "%-9s P=%-5u off: skipped (%s) | on: "
        "%7.2fs wall %9.1fs virt %8llu iters %9llu flows (%llu coalesced) "
        "%s\n",
        app, p, off_skip_reason, c.on.wall_s, c.on.stats.seconds(),
        static_cast<unsigned long long>(c.on.stats.total_iterations),
        static_cast<unsigned long long>(c.on.stats.update_batches),
        static_cast<unsigned long long>(c.on.stats.coalesced_batches),
        c.on.converged ? "conv" : "CAP");
    return;
  }
  std::fprintf(stderr,
               "%-9s P=%-5u off: %7.2fs wall %9.1fs virt %8llu iters %9llu "
               "flows %s | on: %7.2fs wall %9.1fs virt %8llu iters %9llu "
               "flows (%llu coalesced) %s\n",
               app, p, c.off.wall_s, c.off.stats.seconds(),
               static_cast<unsigned long long>(c.off.stats.total_iterations),
               static_cast<unsigned long long>(c.off.stats.update_batches),
               c.off.converged ? "conv" : "CAP", c.on.wall_s,
               c.on.stats.seconds(),
               static_cast<unsigned long long>(c.on.stats.total_iterations),
               static_cast<unsigned long long>(c.on.stats.update_batches),
               static_cast<unsigned long long>(c.on.stats.coalesced_batches),
               c.on.converged ? "conv" : "CAP");
}

void EmitJson(const char* app, uint32_t p, const BenchOptions& opts,
              const Cell& c) {
  std::printf(
      "{\"bench\":\"scale_async\",\"schema_version\":%d,\"app\":\"%s\","
      "\"P\":%u,\"nodes\":%u,"
      "\"scale\":%g,\"seed\":%llu,"
      "\"queue_mode\":\"%s\","
      "\"rate_tolerance\":%g,\"off_skipped\":%d,"
      "\"off_wall_s\":%.3f,\"off_virtual_s\":%.3f,\"off_iters\":%llu,"
      "\"off_flows\":%llu,\"off_net_bytes\":%llu,\"off_converged\":%d,"
      "\"on_wall_s\":%.3f,\"on_virtual_s\":%.3f,\"on_iters\":%llu,"
      "\"on_flows\":%llu,\"on_net_bytes\":%llu,\"on_converged\":%d,"
      "\"on_coalesced_batches\":%llu,\"on_coalesced_bytes_saved\":%llu,"
      "\"off_rebalances\":%llu,\"off_rate_updates\":%llu,"
      "\"on_rebalances\":%llu,\"on_rate_updates\":%llu,"
      "\"net_busy_s\":%.3f,\"token_circuits\":%u}\n",
      bench::kBenchSchemaVersion, app, p, CloudSpecFor(p).num_nodes(), opts.scale,
      static_cast<unsigned long long>(opts.seed),
      InSpeedTier(p) ? "calendar" : "heap", kRateTolerance,
      c.off_skipped ? 1 : 0, c.off.wall_s,
      c.off.stats.seconds(),
      static_cast<unsigned long long>(c.off.stats.total_iterations),
      static_cast<unsigned long long>(c.off.stats.update_batches),
      static_cast<unsigned long long>(c.off.stats.bytes_sent),
      c.off.converged ? 1 : 0, c.on.wall_s, c.on.stats.seconds(),
      static_cast<unsigned long long>(c.on.stats.total_iterations),
      static_cast<unsigned long long>(c.on.stats.update_batches),
      static_cast<unsigned long long>(c.on.stats.bytes_sent),
      c.on.converged ? 1 : 0,
      static_cast<unsigned long long>(c.on.stats.coalesced_batches),
      static_cast<unsigned long long>(c.on.stats.coalesced_bytes_saved),
      static_cast<unsigned long long>(c.off.net.rebalances),
      static_cast<unsigned long long>(c.off.net.flow_rate_updates),
      static_cast<unsigned long long>(c.on.net.rebalances),
      static_cast<unsigned long long>(c.on.net.flow_rate_updates),
      c.on.net.busy_seconds, c.on.stats.token_circuits);
}

/// Runs one (app, P) cell: the same workload with coalescing off then on.
/// `skip_off` drops the off variant — the all-to-all broadcast at P = 1024
/// puts ~P^2 concurrent flows in the fluid model without coalescing, which
/// is past what flow-granular simulation (or a real 1 Gb NIC) can carry;
/// making that cell *feasible* is the coalescing result, not a comparison.
/// `obs` (when non-null) attaches only to the coalescing-on variant so the
/// trace holds one run, not two overlaid timelines.
template <typename RunFn>
Cell RunCell(uint32_t p, RunFn&& run, bool skip_off = false,
             obs::Observability obs = {}) {
  Cell cell;
  cell.off_skipped = skip_off;
  for (const bool coalesce : {false, true}) {
    if (!coalesce && skip_off) continue;
    CellRun& r = coalesce ? cell.on : cell.off;
    cluster::SimCluster sim(CloudSpecFor(p));
    auto tuning = Tuning(coalesce);
    if (coalesce) tuning.obs = obs;
    r.wall_s = WallSeconds([&] { r.converged = run(sim, tuning, &r.stats); });
    r.net = sim.network().stats();
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = BenchOptions::FromEnv(argc, argv);
  bench::ObsSession obs_session(opts);
  const uint32_t max_p =
      static_cast<uint32_t>(GetEnvInt("AMR_MAX_P", 1024));
  const uint32_t min_p = static_cast<uint32_t>(GetEnvInt("AMR_MIN_P", 0));
  std::vector<uint32_t> sweep;
  for (uint32_t p : {64u, 256u, 1024u, 4096u}) {
    if (p >= min_p && p <= max_p) sweep.push_back(p);
  }
  std::fprintf(stderr,
               "=== scale_async — P >> slots on Cloud(N) topologies ===\n"
               "scale: %.2fx (AMR_SCALE), seed %llu; Cloud(max(8, P/8)): 20 "
               "nodes/rack, 0.25x oversubscribed inter-rack, 2 slots/node\n",
               opts.scale, static_cast<unsigned long long>(opts.seed));
  std::fprintf(stderr, "P sweep:");
  for (uint32_t p : sweep) std::fprintf(stderr, " %u", p);
  std::fprintf(stderr,
               " (AMR_MIN_P=%u, AMR_MAX_P=%u), both coalescing variants; "
               "P >= %u runs the calendar queue\n\n",
               min_p, max_p, kSpeedTierP);

  // One shared power-law graph, sized so the largest P still gets non-trivial
  // partitions (~48 vertices each at P = 1024, scale 1) — the regime where
  // iteration compute is cheap and the network/engine overheads dominate,
  // which is exactly what this bench stresses.
  graph::PrefAttachConfig gc;
  gc.num_vertices = static_cast<graph::VertexId>(opts.Scaled(50'000, 8'000));
  gc.num_in = 3;
  gc.num_out = 3;
  gc.locality_window = std::max<graph::VertexId>(8, gc.num_vertices / 1000);
  gc.max_edge_age = 4 * gc.locality_window;
  gc.seed = opts.seed;
  const auto g = graph::PreferentialAttachment(gc);
  const auto gw = graph::WithRandomWeights(g, 1.0, 10.0, opts.seed + 3);
  std::fprintf(stderr, "graph: %s\n", g.Describe().c_str());

  // K-Means data: fewer points and dimensions than the paper's census sample
  // — at P = 1024 a partition holds only dozens of points, so the cell's cost
  // is the all-to-all partial exchange (what this bench measures), not the
  // assignment arithmetic or the partial payload size.
  apps::CensusLikeConfig data_config;
  data_config.num_points = static_cast<uint32_t>(opts.Scaled(30'000, 6'000));
  data_config.dims = 16;
  data_config.planted_clusters = 8;
  data_config.seed = opts.seed;
  const auto data = apps::GenerateCensusLike(data_config);

  for (uint32_t p : sweep) {
    const auto part = graph::MultilevelPartition(g, p, opts.seed);

    // PageRank: boundary-push over the partition adjacency. The largest-P
    // PageRank cell is the traced run when --trace-out/--metrics-out is set
    // (one representative run per binary; P=64 under AMR_MAX_P=64 in CI).
    {
      apps::PageRankConfig pr;
      // Worker cap is 10x the global cap. Engine overhead per cell grows
      // ~linearly in P x iterations regardless of AMR_SCALE (the caps, not
      // convergence, end these cells), so the speed tier trims the budget to
      // keep the P = 4096 row bounded — it measures engine throughput, and
      // ~160k worker iterations are plenty of signal.
      pr.max_global_iterations = InSpeedTier(p) ? 10 : 40;
      const bool traced_cell = p == sweep.back();
      // At the speed tier the off variant is skipped like K-Means at 1024:
      // the off-vs-on crossover is established on the 64-1024 rows, and the
      // uncoalesced variant costs ~9x the cell (P=1024: 290s vs 33s) to
      // re-measure it. Logged, not silent.
      const bool skip_off = InSpeedTier(p);
      const Cell cell = RunCell(
          p,
          [&](cluster::SimCluster& sim, const async::EngineTuning& tuning,
              async::AsyncResult* stats) {
            apps::PageRankConfig config = pr;
            config.async_tuning = tuning;
            return apps::AsyncPageRank(sim, g, part, config,
                                       async::kUnboundedStaleness, stats)
                .converged;
          },
          skip_off,
          traced_cell ? obs_session.View() : obs::Observability{});
      PrintCell("pagerank", p, cell,
                "speed tier measures the coalesced configuration only");
      EmitJson("pagerank", p, opts, cell);
    }

    if (InSpeedTier(p)) {
      // The speed tier measures the engine at scale through the PageRank
      // cell; say exactly which cells did NOT run rather than leaving holes
      // in the trajectory.
      std::fprintf(stderr,
                   "sssp      P=%-5u skipped: ~%u vertices/partition — cell "
                   "would measure fixed engine traffic, not relaxation\n"
                   "kmeans    P=%-5u skipped: all-to-all at this P is "
                   "infeasible without coalescing and pure exchange with it\n",
                   p, static_cast<uint32_t>(g.num_vertices() / p), p);
      continue;
    }

    // SSSP: monotone relaxations, naturally sparse traffic.
    {
      const Cell cell = RunCell(p, [&](cluster::SimCluster& sim,
                                       const async::EngineTuning& tuning,
                                       async::AsyncResult* stats) {
        apps::SsspConfig config;
        config.max_global_iterations = 400;
        config.async_tuning = tuning;
        return apps::AsyncSssp(sim, gw, part, config,
                               async::kUnboundedStaleness, stats)
            .converged;
      });
      PrintCell("sssp", p, cell);
      EmitJson("sssp", p, opts, cell);
    }

    // K-Means: all-to-all partial broadcast — the flow-count worst case and
    // the coalescing showcase (P-1 peers per worker per iteration).
    {
      const Cell cell = RunCell(p, [&](cluster::SimCluster& sim,
                                       const async::EngineTuning& tuning,
                                       async::AsyncResult* stats) {
        apps::KMeansConfig config;
        config.k = 8;
        config.num_partitions = p;
        // The engine's per-worker cap is 10x this. All-to-all traffic grows
        // with P * iterations * (P - 1), so the iteration budget shrinks as
        // P grows — the cell measures exchange throughput, not Lloyd depth.
        config.max_global_iterations = std::max<uint32_t>(2, 256 / p);
        config.threshold = 0.01;
        config.seed = opts.seed + 5;
        config.async_tuning = tuning;
        return apps::AsyncKMeans(sim, data, config,
                                 async::kUnboundedStaleness, stats)
            .converged;
      }, /*skip_off=*/p > 256);
      PrintCell("kmeans", p, cell);
      EmitJson("kmeans", p, opts, cell);
    }
  }
  obs_session.FlushOrWarn();
  return 0;
}
