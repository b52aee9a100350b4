#include "apps/app_common.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace asyncmr::apps {

BoundaryPlan BoundaryPlan::Build(const graph::Digraph& g,
                                 const graph::Partitioning& partitioning) {
  struct CutEdge {
    uint32_t peer;
    graph::VertexId target;
    uint32_t source;
    double weight;
  };
  const bool weighted = g.weighted();
  BoundaryPlan plan;
  plan.local_of.assign(g.num_vertices(), 0);
  plan.parts.resize(partitioning.num_parts);
  auto members = partitioning.Members();
  for (uint32_t p = 0; p < partitioning.num_parts; ++p) {
    for (uint32_t i = 0; i < members[p].size(); ++i) plan.local_of[members[p][i]] = i;
    plan.parts[p].members = std::move(members[p]);
  }

  std::vector<CutEdge> cut;
  for (uint32_t p = 0; p < partitioning.num_parts; ++p) {
    Part& part = plan.parts[p];
    const auto m = static_cast<uint32_t>(part.members.size());
    part.internal_offsets.reserve(m + 1);
    part.internal_offsets.push_back(0);
    cut.clear();
    for (uint32_t i = 0; i < m; ++i) {
      const graph::VertexId u = part.members[i];
      const auto neighbors = g.OutNeighbors(u);
      const auto weights = g.OutWeights(u);
      for (size_t e = 0; e < neighbors.size(); ++e) {
        const graph::VertexId t = neighbors[e];
        const double w = weighted ? weights[e] : 1.0;
        const uint32_t q = partitioning.part_of[t];
        if (q == p) {
          part.internal_targets.push_back(plan.local_of[t]);
          if (weighted) part.internal_weights.push_back(w);
        } else {
          cut.push_back({q, t, i, w});
        }
      }
      AMR_CHECK_LE(part.internal_targets.size(),
                   std::numeric_limits<uint32_t>::max());
      part.internal_offsets.push_back(
          static_cast<uint32_t>(part.internal_targets.size()));
    }
    // Stable: each (peer, target) run keeps the source-major CSR order.
    std::stable_sort(cut.begin(), cut.end(), [](const CutEdge& a, const CutEdge& b) {
      return a.peer != b.peer ? a.peer < b.peer : a.target < b.target;
    });
    for (size_t e = 0; e < cut.size(); ++e) {
      if (e == 0 || cut[e].peer != cut[e - 1].peer) {
        part.out.emplace_back().peer = cut[e].peer;
        plan.parts[cut[e].peer].in_peers.push_back(p);
      }
      OutGroup& group = part.out.back();
      if (group.targets.empty() || group.targets.back() != cut[e].target) {
        group.run_begin.push_back(static_cast<uint32_t>(group.sources.size()));
        group.targets.push_back(cut[e].target);
      }
      group.sources.push_back(cut[e].source);
      if (weighted) group.weights.push_back(cut[e].weight);
    }
    for (OutGroup& group : part.out) {
      group.run_begin.push_back(static_cast<uint32_t>(group.sources.size()));
    }
  }
  return plan;
}

core::RunTrace AsyncRunTrace(const std::string& name,
                             const async::AsyncResult& result) {
  core::RunTrace run(name);
  core::RoundTrace trace;
  trace.round = 0;
  trace.start_seconds = result.start_seconds;
  trace.end_seconds = result.end_seconds;
  trace.ops = result.total_ops;
  trace.shuffle_bytes = result.bytes_sent;
  trace.local_iterations = static_cast<uint32_t>(result.total_iterations);
  trace.residual = result.final_residual;
  run.AddRound(trace);
  return run;
}

std::vector<std::pair<uint32_t, double>> DenseAccumulator::DrainSorted() {
  std::vector<std::pair<uint32_t, double>> out;
  out.reserve(touched_count_);
  for (size_t w = 0; out.size() < touched_count_; ++w) {
    uint64_t word = touched_bits_[w];
    if (word == 0) continue;
    touched_bits_[w] = 0;
    for (; word != 0; word &= word - 1) {
      const auto idx = static_cast<uint32_t>(w * 64 + std::countr_zero(word));
      out.emplace_back(idx, values_[idx]);
      values_[idx] = 0.0;
    }
  }
  touched_count_ = 0;
  return out;
}

}  // namespace asyncmr::apps
