// One min-propagation fixed point on the async engine. SSSP and connected
// components (Section VI names components in the class Shortest Path
// represents) both iterate x_t = min(x_t, Relax(x_s, w)) over every edge
// s -> t, with Relax(x, w) = x + w for distances and x for labels. Min-combine
// is monotone, so any delay or reordering reaches the exact fixed point
// (El-Baz, PAPERS.md) and a dead epoch's candidate stays true. monotone::Async
// holds the barrier-free driver once; the wave engines run components through
// the SSSP drivers, which take their start vector here.
//
// An app supplies a Rule, a struct passed as a template parameter so its
// functions inline into the per-edge loops:
//     using Value;                          double (SSSP), uint32_t (labels)
//     static constexpr const char* kName;   trace label: "async-<kName>"
//     static constexpr Value kNeverSent;    above every value a push can send
//     static bool Reached(Value x);         x carries a value yet
//     static Value Relax(Value x, double w);
//     static bool Improves(Value cand, Value cur);
//     static double Slack(double relaxed);  AuditMinEdge's slack
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "apps/app_common.hpp"
#include "apps/sssp.hpp"
#include "async/async_engine.hpp"
#include "cluster/cluster.hpp"
#include "common/check.hpp"
#include "core/metrics.hpp"
#include "graph/partition.hpp"

namespace asyncmr::apps {

/// The async min-propagation wire record: a candidate value for one boundary
/// vertex, min-combined at the receiver. The vertex id travels as a varint,
/// then an 8-byte distance (SSSP) or a varint label (Components).
template <typename T>
struct MinUpdate {
  uint32_t vertex = 0;
  T value{};
  AMR_SERDE_FIELDS(vertex, value)
};

/// The fixed-point contract of a converged min-propagation run, checked per
/// edge (s, t): the value held at t may exceed the candidate Relax(x_s, w)
/// by at most the rule's slack, so no edge can still improve its target. A
/// free function so negative tests can feed it a violating pair directly
/// (tests/test_audit.cpp).
inline void AuditMinEdge(double held, double relaxed, double slack) {
  AUDIT_CHECK(held <= relaxed + slack)
      << "min-propagation stopped short of its fixed point: held " << held
      << ", an edge offers " << relaxed << " (slack " << slack << ")";
}

/// Edge e's weight, 1.0 on an unweighted graph (empty weights).
inline double EdgeWeight(std::span<const double> weights, size_t e) {
  return weights.empty() ? 1.0 : weights[e];
}

namespace monotone {

/// The SSSP wave drivers from an explicit start vector (size n) in place of
/// 0 at config.source and +inf elsewhere.
SsspResult GeneralSssp(cluster::SimCluster& cluster, const graph::Digraph& g,
                       const graph::Partitioning& partitioning,
                       const SsspConfig& config, std::vector<double> start);

SsspResult EagerSssp(cluster::SimCluster& cluster, const graph::Digraph& g,
                     const graph::Partitioning& partitioning,
                     const SsspConfig& config, std::vector<double> start);

/// What the async driver returns; the apps' wrappers rename x.
template <typename T>
struct Run {
  std::vector<T> x;
  core::RunTrace trace;
  bool converged = false;
};

#ifdef AMR_AUDIT
/// Checks every edge of g under AuditMinEdge.
template <typename Rule>
void AuditFixedPoint(const graph::Digraph& g, const std::vector<typename Rule::Value>& x) {
  for (graph::VertexId s = 0; s < g.num_vertices(); ++s) {
    const auto targets = g.OutNeighbors(s);
    for (size_t k = 0; k < targets.size(); ++k) {
      const double relaxed =
          static_cast<double>(Rule::Relax(x[s], EdgeWeight(g.OutWeights(s), k)));
      AuditMinEdge(static_cast<double>(x[targets[k]]), relaxed, Rule::Slack(relaxed));
    }
  }
}
#endif  // AMR_AUDIT

/// Barrier-free min-propagation on async::AsyncEngine from the start vector
/// x (size n). The worker residual is its count of changed values, so the
/// run terminates once no value changes anywhere with nothing in flight.
template <typename Rule, typename Config>
Run<typename Rule::Value> Async(cluster::SimCluster& cluster, const graph::Digraph& g,
                                const graph::Partitioning& partitioning,
                                const Config& config, std::vector<typename Rule::Value> x,
                                uint32_t staleness, async::AsyncResult* engine_stats) {
  using Value = typename Rule::Value;
  AMR_CHECK_EQ(x.size(), g.num_vertices());
  const uint32_t num_parts = partitioning.num_parts;
  const BoundaryPlan plan = BoundaryPlan::Build(g, partitioning);
  // Best candidate pushed per boundary target. Re-announcement refills
  // kNeverSent so every candidate is pushed again: dead-epoch facts stay
  // true, but a restarted worker rolled back to larger values and needs its
  // in-peers' candidates again.
  DeltaFilter<Value> best_sent(plan, Rule::kNeverSent, Rule::kNeverSent);

  async::AsyncConfig engine_config;
  engine_config.staleness_bound = staleness;
  // Residual is the count of changed values; terminate when none anywhere.
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

    // Relax the partition's internal edges to a fixed point: every path
    // through its sub-graph is settled before anything is pushed.
    for (uint32_t sweep = 0; sweep < config.max_local_iterations; ++sweep) {
      uint64_t sweep_changed = 0;
      for (uint32_t i = 0; i < m; ++i) {
        const Value xs = x[part.members[i]];
        if (!Rule::Reached(xs)) continue;
        for (uint32_t e = part.internal_offsets[i]; e < part.internal_offsets[i + 1];
             ++e) {
          Value& xt = x[part.members[part.internal_targets[e]]];
          const Value cand = Rule::Relax(xs, EdgeWeight(part.internal_weights, e));
          if (Rule::Improves(cand, xt)) {
            xt = cand;
            ++sweep_changed;
          }
        }
      }
      ops += part.internal_edges() + m;
      changed += sweep_changed;
      if (sweep_changed == 0) break;
    }
    ctx.set_residual(static_cast<double>(changed));

    // Push each boundary target's best candidate over its run of cut edges,
    // once, when it beats the last one sent.
    for (size_t b = 0; b < part.out.size(); ++b) {
      const BoundaryPlan::OutGroup& group = part.out[b];
      std::vector<Value>& sent = best_sent.sent(p, b);
      for (size_t j = 0; j < group.targets.size(); ++j) {
        Value best = Rule::kNeverSent;
        for (uint32_t e = group.run_begin[j]; e < group.run_begin[j + 1]; ++e) {
          const Value xs = x[part.members[group.sources[e]]];
          if (!Rule::Reached(xs)) continue;
          best = std::min(best, Rule::Relax(xs, EdgeWeight(group.weights, e)));
        }
        if (!Rule::Improves(best, sent[j])) continue;
        sent[j] = best;
        ctx.Emit(group.peer, MinUpdate<Value>{group.targets[j], best});
      }
      ops += group.num_edges();
    }
    ctx.AddOps(ops);
  });

  // Min-combine is reorder- and epoch-safe: a dead epoch's candidate is
  // still true, so apply ignores the version metadata.
  engine.set_apply([&](uint32_t /*p*/, uint32_t /*from*/, uint32_t /*from_clock*/,
                       uint32_t /*from_epoch*/, const async::UpdateBatch& batch) {
    async::ForEachUpdate<MinUpdate<Value>>(batch, [&](const MinUpdate<Value>& u) {
      if (Rule::Improves(u.value, x[u.vertex])) x[u.vertex] = u.value;
    });
  });

  // Worker state is this partition's slice of x (apply only ever writes
  // boundary targets inside the receiving partition).
  engine.set_snapshot([&](uint32_t p, serde::Writer& w) {
    const auto& members = plan.parts[p].members;
    std::vector<Value> slice;
    slice.reserve(members.size());
    for (graph::VertexId v : members) slice.push_back(x[v]);
    serde::Serde<std::vector<Value>>::Write(w, slice);
  });
  engine.set_restore([&](uint32_t p, serde::Reader& r) {
    const auto& members = plan.parts[p].members;
    std::vector<Value> slice;
    AMR_CHECK(serde::Serde<std::vector<Value>>::Read(r, slice).ok());
    AMR_CHECK_EQ(slice.size(), members.size());
    for (size_t i = 0; i < slice.size(); ++i) x[members[i]] = slice[i];
    best_sent.ResendAll(p);
  });

  async::AsyncResult engine_result = engine.Run();
  if (engine_stats != nullptr) *engine_stats = engine_result;

  AMR_IF_AUDIT(if (engine_result.converged) AuditFixedPoint<Rule>(g, x);)
  Run<Value> run;
  run.x = std::move(x);
  run.converged = engine_result.converged;
  run.trace = AsyncRunTrace(std::string("async-") + Rule::kName, engine_result);
  return run;
}

}  // namespace monotone
}  // namespace asyncmr::apps
