#include "apps/components.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "apps/app_common.hpp"
#include "common/check.hpp"

namespace asyncmr::apps {

namespace {

/// Zero-weight edges turn SSSP's min-plus relaxation into min-label flooding.
graph::Digraph ZeroWeighted(const graph::Digraph& g) {
  std::vector<graph::Edge> edges = g.ToEdges();
  for (auto& e : edges) e.weight = 0.0;
  return graph::Digraph::FromEdges(g.num_vertices(), std::move(edges),
                                   /*weighted=*/true);
}

std::vector<double> IdentityLabels(uint32_t n) {
  std::vector<double> init(n);
  std::iota(init.begin(), init.end(), 0.0);
  return init;
}

ComponentsResult FromSssp(SsspResult&& sssp, uint32_t n) {
  ComponentsResult result;
  result.trace = std::move(sssp.trace);
  result.converged = sssp.converged;
  result.labels.resize(n);
  std::unordered_set<graph::VertexId> distinct;
  for (uint32_t v = 0; v < n; ++v) {
    result.labels[v] = static_cast<graph::VertexId>(sssp.distances[v]);
    distinct.insert(result.labels[v]);
  }
  result.num_components = static_cast<uint32_t>(distinct.size());
  return result;
}

SsspConfig ToSsspConfig(const ComponentsConfig& config, uint32_t n) {
  SsspConfig sssp;
  sssp.max_global_iterations = config.max_global_iterations;
  sssp.max_local_iterations = config.max_local_iterations;
  sssp.job_prefix = config.job_prefix;
  sssp.initial_distances = IdentityLabels(n);
  return sssp;
}

}  // namespace

graph::Digraph Symmetrized(const graph::Digraph& g) {
  std::vector<graph::Edge> edges = g.ToEdges();
  const size_t forward = edges.size();
  edges.reserve(forward * 2);
  for (size_t i = 0; i < forward; ++i) {
    edges.push_back({edges[i].dst, edges[i].src, edges[i].weight});
  }
  return graph::Digraph::FromEdges(g.num_vertices(), std::move(edges), g.weighted());
}

std::vector<graph::VertexId> SerialComponents(const graph::Digraph& g) {
  const uint32_t n = g.num_vertices();
  std::vector<graph::VertexId> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<graph::VertexId(graph::VertexId)> find =
      [&](graph::VertexId v) -> graph::VertexId {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];  // path halving
      v = parent[v];
    }
    return v;
  };
  for (graph::VertexId u = 0; u < n; ++u) {
    for (graph::VertexId t : g.OutNeighbors(u)) {
      const graph::VertexId ru = find(u), rt = find(t);
      if (ru != rt) parent[std::max(ru, rt)] = std::min(ru, rt);
    }
  }
  std::vector<graph::VertexId> labels(n);
  for (graph::VertexId v = 0; v < n; ++v) labels[v] = find(v);
  return labels;
}

ComponentsResult GeneralComponents(cluster::SimCluster& cluster,
                                   const graph::Digraph& g,
                                   const graph::Partitioning& partitioning,
                                   const ComponentsConfig& config) {
  const graph::Digraph undirected = ZeroWeighted(Symmetrized(g));
  auto sssp = GeneralSssp(cluster, undirected, partitioning,
                          ToSsspConfig(config, g.num_vertices()));
  return FromSssp(std::move(sssp), g.num_vertices());
}

ComponentsResult EagerComponents(cluster::SimCluster& cluster,
                                 const graph::Digraph& g,
                                 const graph::Partitioning& partitioning,
                                 const ComponentsConfig& config) {
  const graph::Digraph undirected = ZeroWeighted(Symmetrized(g));
  auto sssp = EagerSssp(cluster, undirected, partitioning,
                        ToSsspConfig(config, g.num_vertices()));
  return FromSssp(std::move(sssp), g.num_vertices());
}

// ---------------------------------------------------------------------------
// Async components: chaotic min-label propagation on async::AsyncEngine.
// ---------------------------------------------------------------------------

ComponentsResult AsyncComponents(cluster::SimCluster& cluster,
                                 const graph::Digraph& g,
                                 const graph::Partitioning& partitioning,
                                 const ComponentsConfig& config,
                                 uint32_t staleness,
                                 async::AsyncResult* engine_stats) {
  const uint32_t n = g.num_vertices();
  const uint32_t num_parts = partitioning.num_parts;
  const BoundaryPlan plan = BoundaryPlan::Build(Symmetrized(g), partitioning);
  // Best label already pushed per boundary target (monotone decreasing);
  // UINT32_MAX, above every vertex id, means never sent. Re-announcement
  // refills it so every label is pushed again: labels only shrink
  // (min-combine), so dead-epoch facts stand, but the restarted worker
  // itself rolled back to older (larger) labels and needs its in-peers'
  // minima again.
  constexpr uint32_t kNeverSent = std::numeric_limits<uint32_t>::max();
  DeltaFilter<uint32_t> best_sent(plan, kNeverSent, kNeverSent);

  ComponentsResult result;
  result.labels.resize(n);
  std::iota(result.labels.begin(), result.labels.end(), 0);
  std::vector<graph::VertexId>& labels = result.labels;

  async::AsyncConfig engine_config;
  engine_config.staleness_bound = staleness;
  // Residual is the count of changed labels; terminate when none anywhere.
  engine_config.convergence_threshold = 0.5;
  engine_config.max_iterations_per_worker = config.max_global_iterations;
  engine_config.tuning = config.async_tuning;
  engine_config.name = config.job_prefix + "-async";
  async::AsyncEngine engine(cluster, num_parts, engine_config);

  AttachBoundary(engine, plan, best_sent);

  engine.set_compute([&](uint32_t p, async::AsyncContext& ctx) {
    const BoundaryPlan::Part& part = plan.parts[p];
    const auto m = static_cast<uint32_t>(part.members.size());
    uint64_t ops = 0;
    uint64_t changed = 0;

    // Flood labels through this partition's symmetrized sub-graph to a fixed
    // point before pushing anything over the cut.
    for (uint32_t sweep = 0; sweep < config.max_local_iterations; ++sweep) {
      uint64_t sweep_changed = 0;
      for (uint32_t i = 0; i < m; ++i) {
        const graph::VertexId lu = labels[part.members[i]];
        for (uint32_t t : part.Internal(i)) {
          graph::VertexId& lt = labels[part.members[t]];
          if (lu < lt) {
            lt = lu;
            ++sweep_changed;
          }
        }
      }
      ops += part.internal_edges() + m;
      changed += sweep_changed;
      if (sweep_changed == 0) break;
    }
    ctx.set_residual(static_cast<double>(changed));

    // Push improved labels over cut edges, min-folded per target.
    for (size_t b = 0; b < part.out.size(); ++b) {
      const BoundaryPlan::OutGroup& group = part.out[b];
      std::vector<uint32_t>& sent = best_sent.sent(p, b);
      for (size_t j = 0; j < group.targets.size(); ++j) {
        uint32_t best = kNeverSent;
        for (uint32_t e = group.run_begin[j]; e < group.run_begin[j + 1]; ++e) {
          best = std::min(best, labels[part.members[group.sources[e]]]);
        }
        if (best >= sent[j]) continue;
        sent[j] = best;
        ctx.Emit(group.peer, CcLabelUpdate{group.targets[j], best});
      }
      ops += group.num_edges();
    }
    ctx.AddOps(ops);
  });

  // Min-combine is reorder- and epoch-safe; apply ignores version metadata.
  engine.set_apply([&](uint32_t /*p*/, uint32_t /*from*/, uint32_t /*from_clock*/,
                       uint32_t /*from_epoch*/, const async::UpdateBatch& batch) {
    async::ForEachUpdate<CcLabelUpdate>(batch, [&](const CcLabelUpdate& u) {
      if (u.label < labels[u.vertex]) labels[u.vertex] = u.label;
    });
  });

  // Worker state is this partition's slice of the label vector.
  engine.set_snapshot([&](uint32_t p, serde::Writer& w) {
    const auto& members = plan.parts[p].members;
    std::vector<uint32_t> slice;
    slice.reserve(members.size());
    for (graph::VertexId v : members) slice.push_back(labels[v]);
    serde::Serde<std::vector<uint32_t>>::Write(w, slice);
  });
  engine.set_restore([&](uint32_t p, serde::Reader& r) {
    const auto& members = plan.parts[p].members;
    std::vector<uint32_t> slice;
    AMR_CHECK(serde::Serde<std::vector<uint32_t>>::Read(r, slice).ok());
    AMR_CHECK_EQ(slice.size(), members.size());
    for (size_t i = 0; i < slice.size(); ++i) labels[members[i]] = slice[i];
    best_sent.ResendAll(p);
  });

  async::AsyncResult engine_result = engine.Run();
  if (engine_stats != nullptr) *engine_stats = engine_result;

  std::unordered_set<graph::VertexId> distinct(labels.begin(), labels.end());
  result.num_components = static_cast<uint32_t>(distinct.size());
  result.converged = engine_result.converged;
  result.trace = AsyncRunTrace("async-components", engine_result);
  return result;
}

}  // namespace asyncmr::apps
