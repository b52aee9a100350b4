#include "apps/app_common.hpp"

#include <bit>

namespace asyncmr::apps {

PartitionView PartitionView::Build(const graph::Digraph& g,
                                   const graph::Partitioning& p) {
  PartitionView view;
  view.members = p.Members();
  view.internal_target_index.resize(p.num_parts);
  for (uint32_t part = 0; part < p.num_parts; ++part) {
    auto& per_member = view.internal_target_index[part];
    per_member.resize(view.members[part].size());
    for (size_t i = 0; i < view.members[part].size(); ++i) {
      const graph::VertexId v = view.members[part][i];
      const auto neighbors = g.OutNeighbors(v);
      for (uint32_t j = 0; j < neighbors.size(); ++j) {
        if (p.part_of[neighbors[j]] == part) per_member[i].push_back(j);
      }
    }
  }
  return view;
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
