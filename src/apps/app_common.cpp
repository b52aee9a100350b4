#include "apps/app_common.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/partition_io.hpp"
#include "graph/graph_io.hpp"

namespace asyncmr::apps {

namespace {

/// Reducers per wave job of the graph apps.
constexpr uint32_t kGraphReducers = 16;

/// Approximate on-disk bytes per (vertex, value) record of a graph app's
/// iteration output.
constexpr uint64_t kVertexRecordBytes = 12;

/// Fills part's pull layout (see BoundaryPlan) from its internal CSR.
void BuildPullLayout(BoundaryPlan::Part& part) {
  constexpr uint32_t kLanes = BoundaryPlan::kPullLanes;
  const auto m = static_cast<uint32_t>(part.members.size());
  // A transient in-CSR: scanning sources in ascending order lists each
  // target's sources ascending, repeated edges kept.
  std::vector<uint32_t> in_offsets(m + 1, 0);
  for (uint32_t t : part.internal_targets) ++in_offsets[t + 1];
  for (uint32_t t = 0; t < m; ++t) in_offsets[t + 1] += in_offsets[t];
  std::vector<uint32_t> in_sources(part.internal_targets.size());
  std::vector<uint32_t> cursor(in_offsets.begin(), in_offsets.end() - 1);
  for (uint32_t i = 0; i < m; ++i) {
    for (uint32_t t : part.Internal(i)) in_sources[cursor[t]++] = i;
  }
  const auto in_degree = [&](uint32_t t) { return in_offsets[t + 1] - in_offsets[t]; };

  part.pull_order.resize(m);
  std::iota(part.pull_order.begin(), part.pull_order.end(), 0u);
  std::stable_sort(part.pull_order.begin(), part.pull_order.end(),
                   [&](uint32_t a, uint32_t b) { return in_degree(a) > in_degree(b); });
  part.pull_slice_begin.assign(1, 0);
  for (uint32_t first = 0; first < m; first += kLanes) {
    // The slice's first target has its largest in-degree.
    const size_t base = part.pull_sources.size();
    part.pull_sources.resize(base + size_t{in_degree(part.pull_order[first])} * kLanes, m);
    for (uint32_t lane = 0; lane < kLanes && first + lane < m; ++lane) {
      const uint32_t t = part.pull_order[first + lane];
      for (uint32_t k = 0; k < in_degree(t); ++k) {
        part.pull_sources[base + size_t{k} * kLanes + lane] = in_sources[in_offsets[t] + k];
      }
    }
    part.pull_slice_begin.push_back(static_cast<uint32_t>(part.pull_sources.size()));
  }
  AMR_CHECK_LE(part.pull_sources.size(), std::numeric_limits<uint32_t>::max());
}

#ifdef AMR_AUDIT
/// The pull layout's contract: pull_order is a permutation of the members,
/// every lane lists its target's sources in non-decreasing order followed
/// only by sentinels, and the non-sentinel entries are exactly the internal
/// edges.
void AuditPullLayout(const BoundaryPlan::Part& part) {
  constexpr uint32_t kLanes = BoundaryPlan::kPullLanes;
  const auto m = static_cast<uint32_t>(part.members.size());
  std::vector<uint32_t> sorted = part.pull_order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint32_t> members(m);
  std::iota(members.begin(), members.end(), 0u);
  AUDIT_CHECK(sorted == members) << "pull_order is not a permutation of [0, " << m << ")";
  AUDIT_CHECK(part.pull_slice_begin.size() == (m + kLanes - 1) / kLanes + 1)
      << "pull slices do not cover the members";
  uint64_t edges = 0;
  for (size_t s = 0; s + 1 < part.pull_slice_begin.size(); ++s) {
    for (uint32_t lane = 0; lane < kLanes; ++lane) {
      uint32_t prev = 0;
      for (uint32_t k = part.pull_slice_begin[s] + lane; k < part.pull_slice_begin[s + 1];
           k += kLanes) {
        const uint32_t source = part.pull_sources[k];
        AUDIT_CHECK(source >= prev && source <= m)
            << "pull lane " << lane << " of slice " << s << " is out of order at slot " << k;
        if (source < m) ++edges;
        prev = source;
      }
    }
  }
  AUDIT_CHECK(edges == part.internal_edges())
      << "pull layout holds " << edges << " of " << part.internal_edges() << " edges";
}
#endif  // AMR_AUDIT

}  // namespace

WaveRounds::WaveRounds(cluster::SimCluster& cluster, const std::string& job_prefix,
                       Kind kind, uint32_t num_reducers,
                       const std::vector<serde::Buffer>& images,
                       const std::vector<uint64_t>& payload_bytes)
    : job_name_(job_prefix + (kind == Kind::kGeneral ? "-g" : "-e")),
      prefix_("/" + job_prefix + (kind == Kind::kGeneral ? "-gen-" : "-eag-") +
              std::to_string(cluster.dfs().stats().files_written)),
      num_reducers_(num_reducers),
      splits_(core::StagePartitionFiles(cluster, prefix_ + "/in", images)) {
  AMR_CHECK_EQ(payload_bytes.size(), splits_.size());
  for (size_t p = 0; p < splits_.size(); ++p) {
    splits_[p].input_bytes = images[p].size() + payload_bytes[p];
  }
}

WaveRounds WaveRounds::ForGraph(cluster::SimCluster& cluster,
                                const std::string& job_prefix, Kind kind,
                                const graph::Digraph& g,
                                const graph::Partitioning& partitioning) {
  std::vector<uint64_t> payload = partitioning.Sizes();
  for (uint64_t& bytes : payload) bytes *= kVertexRecordBytes;
  return WaveRounds(cluster, job_prefix, kind, kGraphReducers,
                    graph::EncodeAllPartitionImages(g, partitioning), payload);
}

mr::JobConfig WaveRounds::RoundJob(uint32_t round) const {
  mr::JobConfig job;
  job.name = job_name_ + std::to_string(round);
  job.num_reducers = num_reducers_;
  job.output_path = prefix_ + "/it" + std::to_string(round);
  return job;
}

void WaveRounds::Record(core::RunTrace& trace, uint32_t round,
                        const mr::JobStats& stats, uint32_t local_iterations,
                        double residual) {
  core::RoundTrace row;
  row.round = round;
  row.start_seconds = stats.submit_time;
  row.end_seconds = stats.finish_time;
  row.ops = stats.total_ops;
  row.shuffle_bytes = stats.shuffle_bytes;
  row.map_output_bytes = stats.map_output_bytes;
  row.local_iterations = local_iterations;
  row.failed_attempts = stats.failed_attempts;
  row.residual = residual;
  trace.AddRound(row);
}

double ApplyValues(const std::vector<std::pair<uint32_t, double>>& records,
                   std::vector<double>& values) {
  double residual = 0.0;
  for (const auto& [v, value] : records) {
    residual = std::max(residual, std::abs(value - values[v]));
    values[v] = value;
  }
  return residual;
}

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
    BuildPullLayout(part);
    AMR_IF_AUDIT(AuditPullLayout(part);)
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
