#include "apps/components.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <unordered_map>
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
  sssp.num_reducers = config.num_reducers;
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

namespace {

/// Per-partition worker state for the asynchronous engine.
struct AsyncCcPartition {
  std::vector<graph::VertexId> members;
  // Internal symmetrized adjacency per member (global target vertex ids).
  std::vector<std::vector<graph::VertexId>> internal;
  uint64_t internal_edges = 0;
  // Boundary edges grouped by consuming partition, (target, source) sorted by
  // target so per-target minima fold in one pass.
  struct BoundaryGroup {
    uint32_t peer = 0;
    std::vector<std::pair<graph::VertexId, graph::VertexId>> edges;
  };
  std::vector<BoundaryGroup> boundary;
  // Best label already pushed per boundary target (monotone decreasing).
  std::vector<std::unordered_map<graph::VertexId, uint32_t>> best_sent;
};

}  // namespace

ComponentsResult AsyncComponents(cluster::SimCluster& cluster,
                                 const graph::Digraph& g,
                                 const graph::Partitioning& partitioning,
                                 const ComponentsConfig& config,
                                 uint32_t staleness,
                                 async::AsyncResult* engine_stats) {
  const uint32_t n = g.num_vertices();
  const uint32_t num_parts = partitioning.num_parts;
  const graph::Digraph sym = Symmetrized(g);
  const auto members = partitioning.Members();

  std::vector<AsyncCcPartition> parts(num_parts);
  for (uint32_t p = 0; p < num_parts; ++p) {
    AsyncCcPartition& part = parts[p];
    part.members = members[p];
    part.internal.resize(part.members.size());
    std::map<uint32_t, std::vector<std::pair<graph::VertexId, graph::VertexId>>>
        boundary;
    for (size_t i = 0; i < part.members.size(); ++i) {
      const graph::VertexId u = part.members[i];
      for (graph::VertexId t : sym.OutNeighbors(u)) {
        if (partitioning.part_of[t] == p) {
          part.internal[i].push_back(t);
          ++part.internal_edges;
        } else {
          boundary[partitioning.part_of[t]].emplace_back(t, u);
        }
      }
    }
    for (auto& [q, edges] : boundary) {
      std::sort(edges.begin(), edges.end());
      part.boundary.push_back({q, std::move(edges)});
    }
    part.best_sent.resize(part.boundary.size());
  }

  ComponentsResult result;
  result.labels.resize(n);
  std::iota(result.labels.begin(), result.labels.end(), 0);
  std::vector<graph::VertexId>& labels = result.labels;

  async::AsyncConfig engine_config;
  engine_config.staleness_bound = staleness;
  // Residual is the count of changed labels; terminate when none anywhere.
  engine_config.convergence_threshold = 0.5;
  engine_config.max_iterations_per_worker = config.max_global_iterations;
  engine_config.checkpoint_interval = config.async_checkpoint_interval;
  engine_config.tuning = config.async_tuning;
  engine_config.name = config.job_prefix + "-async";
  async::AsyncEngine engine(cluster, num_parts, engine_config);

  // Recovery re-announcement: every label this group ever pushed is pushed
  // again. Labels only shrink (min-combine), so dead-epoch facts stand; the
  // restarted worker itself rolled back to older (larger) labels and needs
  // its in-peers' minima again.
  auto force_resend = [](AsyncCcPartition& part, size_t b) {
    for (auto& [target, best] : part.best_sent[b]) {
      best = std::numeric_limits<uint32_t>::max();
    }
  };

  engine.set_out_peers([&](uint32_t p) {
    std::vector<uint32_t> peers;
    for (const auto& group : parts[p].boundary) peers.push_back(group.peer);
    return peers;
  });

  engine.set_compute([&](uint32_t p, async::AsyncContext& ctx) {
    AsyncCcPartition& part = parts[p];
    uint64_t ops = 0;
    uint64_t changed = 0;

    // Flood labels through this partition's symmetrized sub-graph to a fixed
    // point before pushing anything over the cut.
    for (uint32_t sweep = 0; sweep < config.max_local_iterations; ++sweep) {
      uint64_t sweep_changed = 0;
      for (size_t i = 0; i < part.members.size(); ++i) {
        const graph::VertexId lu = labels[part.members[i]];
        for (graph::VertexId t : part.internal[i]) {
          if (lu < labels[t]) {
            labels[t] = lu;
            ++sweep_changed;
          }
        }
      }
      ops += part.internal_edges + part.members.size();
      changed += sweep_changed;
      if (sweep_changed == 0) break;
    }
    ctx.set_residual(static_cast<double>(changed));

    // Push improved labels over cut edges, min-folded per target.
    for (size_t b = 0; b < part.boundary.size(); ++b) {
      const auto& group = part.boundary[b];
      for (size_t e = 0; e < group.edges.size();) {
        const graph::VertexId t = group.edges[e].first;
        uint32_t best = labels[group.edges[e].second];
        for (++e; e < group.edges.size() && group.edges[e].first == t; ++e) {
          best = std::min(best, static_cast<uint32_t>(labels[group.edges[e].second]));
        }
        auto [it, inserted] = part.best_sent[b].try_emplace(t, best);
        if (!inserted) {
          if (best >= it->second) continue;
          it->second = best;
        }
        ctx.Emit(group.peer, CcLabelUpdate{t, best});
      }
      ops += group.edges.size();
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
    const AsyncCcPartition& part = parts[p];
    std::vector<uint32_t> slice;
    slice.reserve(part.members.size());
    for (graph::VertexId v : part.members) slice.push_back(labels[v]);
    serde::Serde<std::vector<uint32_t>>::Write(w, slice);
  });
  engine.set_restore([&](uint32_t p, serde::Reader& r) {
    AsyncCcPartition& part = parts[p];
    std::vector<uint32_t> slice;
    AMR_CHECK(serde::Serde<std::vector<uint32_t>>::Read(r, slice).ok());
    AMR_CHECK_EQ(slice.size(), part.members.size());
    for (size_t i = 0; i < slice.size(); ++i) labels[part.members[i]] = slice[i];
    for (size_t b = 0; b < part.boundary.size(); ++b) force_resend(part, b);
  });
  engine.set_on_peer_restart([&](uint32_t q, uint32_t restarted) {
    AsyncCcPartition& part = parts[q];
    for (size_t b = 0; b < part.boundary.size(); ++b) {
      if (part.boundary[b].peer == restarted) force_resend(part, b);
    }
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
