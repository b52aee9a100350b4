#include "apps/sssp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "apps/app_common.hpp"
#include "apps/monotone.hpp"
#include "core/partial_sync_job.hpp"
#include "mr/job.hpp"

namespace asyncmr::apps {

namespace {

constexpr double kEps = 1e-12;

/// Distances before the first round: 0 at the source and +inf elsewhere.
std::vector<double> SourceDistances(graph::VertexId source, uint32_t n) {
  AMR_CHECK(source < n);
  std::vector<double> dist(n, kInfDistance);
  dist[source] = 0.0;
  return dist;
}

/// Shortest paths as a min-propagation rule (see monotone.hpp).
struct SsspRule {
  using Value = double;
  static constexpr const char* kName = "sssp";
  static constexpr double kNeverSent = kInfDistance;

  static bool Reached(double d) { return d != kInfDistance; }
  static double Relax(double d, double w) { return d + w; }
  static bool Improves(double cand, double cur) { return cand < cur - kEps; }
  /// The send filter withholds a candidate within kEps of the last one sent,
  /// and the apply filter one within kEps of the value held, so on a
  /// converged run a cut-edge target holds at most 2 kEps above its
  /// candidate (an internal target at most kEps: its sweep found no
  /// improvement). Each of those comparisons, and the check's own sum, rounds
  /// once, by at most half an ulp of values within 2 kEps of relaxed; two
  /// DBL_EPSILON of relaxed cover all three.
  static double Slack(double relaxed) {
    return 2 * kEps + 2 * std::numeric_limits<double>::epsilon() * relaxed;
  }
};

/// The map-side relaxation sweep (General's mapper, Eager's gemit): each
/// reached member u min-combines d(u) + w(u, t) for every out-edge and its
/// own d(u). distance(u) reads d(u) from wherever the caller holds it.
template <typename DistanceFn>
void ScatterRelax(const graph::Digraph& g, const std::vector<graph::VertexId>& members,
                  DistanceFn&& distance, DenseAccumulator& scratch,
                  mr::MapContext<uint32_t, double>& ctx) {
  uint64_t ops = 0;
  for (graph::VertexId u : members) {
    const double d = distance(u);
    if (d == kInfDistance) continue;
    const auto neighbors = g.OutNeighbors(u);
    const auto weights = g.OutWeights(u);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      scratch.Min(neighbors[i], d + EdgeWeight(weights, i));
    }
    scratch.Min(u, d);  // keep the current distance in play
    ops += neighbors.size() + 1;
  }
  ctx.AddOps(ops);
  for (const auto& [t, val] : scratch.DrainSorted()) ctx.Emit(t, val);
}

/// The global reduce (General's reducer, Eager's greduce): the best candidate.
void ReduceMin(const uint32_t& v, const std::vector<double>& candidates,
               mr::ReduceContext<uint32_t, double>& ctx) {
  double best = kInfDistance;
  for (double c : candidates) best = std::min(best, c);
  ctx.AddOps(candidates.size());
  ctx.Emit(v, best);
}

/// Applies min-reduced candidates; returns how many distances improved.
uint64_t ApplyDistances(const std::vector<std::pair<uint32_t, double>>& records,
                        std::vector<double>& dist) {
  uint64_t changed = 0;
  for (const auto& [v, d] : records) {
    if (d < dist[v] - kEps) {
      dist[v] = d;
      ++changed;
    }
  }
  return changed;
}

}  // namespace

std::vector<double> SerialDijkstra(const graph::Digraph& g, graph::VertexId source) {
  AMR_CHECK(source < g.num_vertices());
  std::vector<double> dist(g.num_vertices(), kInfDistance);
  using Item = std::pair<double, graph::VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u] + kEps) continue;  // stale entry
    const auto neighbors = g.OutNeighbors(u);
    const auto weights = g.OutWeights(u);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      const double nd = d + EdgeWeight(weights, i);
      if (nd < dist[neighbors[i]] - kEps) {
        dist[neighbors[i]] = nd;
        heap.push({nd, neighbors[i]});
      }
    }
  }
  return dist;
}

// ---------------------------------------------------------------------------
// General SSSP: one Bellman-Ford relaxation sweep per MapReduce job.
// ---------------------------------------------------------------------------

SsspResult GeneralSssp(cluster::SimCluster& cluster, const graph::Digraph& g,
                       const graph::Partitioning& partitioning,
                       const SsspConfig& config) {
  return monotone::GeneralSssp(cluster, g, partitioning, config,
                               SourceDistances(config.source, g.num_vertices()));
}

SsspResult monotone::GeneralSssp(cluster::SimCluster& cluster, const graph::Digraph& g,
                                 const graph::Partitioning& partitioning,
                                 const SsspConfig& config, std::vector<double> start) {
  const uint32_t n = g.num_vertices();
  AMR_CHECK_EQ(start.size(), n);
  const auto members = partitioning.Members();
  const WaveRounds waves = WaveRounds::ForGraph(
      cluster, config.job_prefix, WaveRounds::Kind::kGeneral, g, partitioning);

  SsspResult result;
  result.distances = std::move(start);
  result.trace = core::RunTrace("general-sssp");
  DenseAccumulator scratch(n);

  for (uint32_t round = 0; round < config.max_global_iterations; ++round) {
    mr::Job<uint32_t, double, uint32_t, double> job(cluster, waves.RoundJob(round));
    job.set_mapper([&](uint32_t p, mr::MapContext<uint32_t, double>& ctx) {
      ScatterRelax(g, members[p], [&](graph::VertexId u) { return result.distances[u]; },
                   scratch, ctx);
    });
    job.set_reducer(ReduceMin);

    auto out = job.RunBlocking(waves.splits());
    const uint64_t changed = ApplyDistances(out.records, result.distances);
    WaveRounds::Record(result.trace, round, out.raw.stats, 0,
                       static_cast<double>(changed));
    if (changed == 0) {
      result.converged = true;
      break;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Eager SSSP: gmap relaxes within its partition to local convergence.
// ---------------------------------------------------------------------------

namespace {

/// One partition element: member i of a plan part, with its best external
/// candidate.
struct SsspVertex {
  const BoundaryPlan::Part* part = nullptr;
  uint32_t i = 0;             // local index in part
  double ext = kInfDistance;  // frozen per round
};

}  // namespace

SsspResult EagerSssp(cluster::SimCluster& cluster, const graph::Digraph& g,
                     const graph::Partitioning& partitioning,
                     const SsspConfig& config) {
  return monotone::EagerSssp(cluster, g, partitioning, config,
                             SourceDistances(config.source, g.num_vertices()));
}

SsspResult monotone::EagerSssp(cluster::SimCluster& cluster, const graph::Digraph& g,
                               const graph::Partitioning& partitioning,
                               const SsspConfig& config, std::vector<double> start) {
  const uint32_t n = g.num_vertices();
  AMR_CHECK_EQ(start.size(), n);
  const uint32_t num_parts = partitioning.num_parts;
  const BoundaryPlan plan = BoundaryPlan::Build(g, partitioning);
  const WaveRounds waves = WaveRounds::ForGraph(
      cluster, config.job_prefix, WaveRounds::Kind::kEager, g, partitioning);

  std::vector<std::vector<SsspVertex>> records(num_parts);
  for (uint32_t p = 0; p < num_parts; ++p) {
    const BoundaryPlan::Part& part = plan.parts[p];
    records[p].reserve(part.members.size());
    for (uint32_t i = 0; i < part.members.size(); ++i) records[p].push_back({&part, i});
  }

  SsspResult result;
  result.distances = std::move(start);
  result.trace = core::RunTrace("eager-sssp");
  DenseAccumulator scratch(n);

  using Psj = core::PartialSyncJob<SsspVertex, uint32_t, double, core::MinCombine>;
  typename Psj::Config psj_config;
  psj_config.local.max_local_iterations = config.max_local_iterations;
  Psj psj(cluster, psj_config);

  psj.set_partition_data(
      [&](uint32_t p) { return std::span<const SsspVertex>(records[p]); });
  // Slot i holds members[i]'s distance. Unreachable members emit nothing, so
  // their slots keep +inf across local iterations.
  psj.set_init_state([&](uint32_t p) {
    Psj::State state;
    for (graph::VertexId u : plan.parts[p].members) state.push_back(result.distances[u]);
    return state;
  });
  psj.set_lmap([](const SsspVertex& x, const Psj::State& state, Psj::Intermediate& out) {
    const BoundaryPlan::Part& part = *x.part;
    const double d = state[x.i];
    const uint32_t begin = part.internal_offsets[x.i];
    const uint32_t end = part.internal_offsets[x.i + 1];
    out.AddOps(1 + end - begin);
    if (d != kInfDistance) {
      for (uint32_t e = begin; e < end; ++e) {
        out.EmitLocalIntermediate(part.internal_targets[e],
                                  d + EdgeWeight(part.internal_weights, e));
      }
      out.EmitLocalIntermediate(x.i, d);
    }
    if (x.ext != kInfDistance) out.EmitLocalIntermediate(x.i, x.ext);
  });
  psj.set_lreduce([](uint32_t, uint32_t i, double best, const Psj::State&,
                     Psj::LocalReduceCtx& ctx) {
    ctx.AddOps(1);
    ctx.EmitLocal(i, best);
  });
  psj.set_local_convergence([](const Psj::State& prev, const Psj::State& next, uint32_t) {
    for (size_t i = 0; i < next.size(); ++i) {
      if (std::abs(next[i] - prev[i]) > kEps) return false;
    }
    return true;
  });
  psj.set_gemit([&](uint32_t p, const Psj::State& state,
                    mr::MapContext<uint32_t, double>& ctx) {
    ScatterRelax(g, plan.parts[p].members,
                 [&](graph::VertexId u) { return state[plan.local_of[u]]; }, scratch,
                 ctx);
  });
  psj.set_greduce(ReduceMin);

  for (uint32_t round = 0; round < config.max_global_iterations; ++round) {
    // Freeze external candidates from current global distances.
    for (auto& part_records : records) {
      for (SsspVertex& x : part_records) x.ext = kInfDistance;
    }
    plan.ForEachCutEdge([&](uint32_t p, uint32_t i, uint32_t q, uint32_t l, double w) {
      const double d = result.distances[plan.parts[p].members[i]];
      if (d == kInfDistance) return;
      double& ext = records[q][l].ext;
      ext = std::min(ext, d + w);
    });

    psj.mutable_config().job = waves.RoundJob(round);
    auto out = psj.RunGlobalIteration(waves.splits());
    const uint64_t changed = ApplyDistances(out.records, result.distances);
    WaveRounds::Record(result.trace, round, out.raw.stats,
                       psj.last_local_iterations(), static_cast<double>(changed));
    if (changed == 0) {
      result.converged = true;
      break;
    }
  }
  return result;
}

SsspResult AsyncSssp(cluster::SimCluster& cluster, const graph::Digraph& g,
                     const graph::Partitioning& partitioning,
                     const SsspConfig& config, uint32_t staleness,
                     async::AsyncResult* engine_stats) {
  auto run = monotone::Async<SsspRule>(cluster, g, partitioning, config,
                                       SourceDistances(config.source, g.num_vertices()),
                                       staleness, engine_stats);
  return {std::move(run.x), std::move(run.trace), run.converged};
}

}  // namespace asyncmr::apps
