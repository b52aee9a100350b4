// Quickstart: the asyncmr API in two acts.
//
//   Act 1 — classic MapReduce on the simulated cluster: word count with the
//           typed Job<> front end.
//   Act 2 — the paper's partial-synchronization API: the same four-function
//           (lmap / lreduce / gemit / greduce) structure computing an
//           iterative average consensus over a ring, eagerly iterating each
//           partition to local convergence between global synchronizations.
//
// Build & run:   ./build/examples/quickstart
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/options.hpp"
#include "core/partial_sync_job.hpp"
#include "mr/job.hpp"

using namespace asyncmr;

namespace {

void WordCountAct(cluster::SimCluster& sim) {
  std::printf("--- Act 1: word count (classic MapReduce) ---\n");
  const std::vector<std::vector<std::string>> docs = {
      {"partial", "synchronization", "beats", "global", "synchronization"},
      {"eager", "scheduling", "hides", "global", "latency"},
      {"locality", "makes", "partial", "synchronization", "work"},
  };

  mr::JobConfig config;
  config.name = "wordcount";
  config.num_reducers = 4;
  config.write_output_to_dfs = false;

  mr::Job<std::string, uint64_t, std::string, uint64_t> job(sim, config);
  job.set_mapper([&docs](uint32_t split, mr::MapContext<std::string, uint64_t>& ctx) {
    for (const auto& word : docs[split]) ctx.Emit(word, 1);
  });
  job.set_combiner([](const uint64_t& a, const uint64_t& b) { return a + b; });
  job.set_reducer([](const std::string& word, const std::vector<uint64_t>& counts,
                     mr::ReduceContext<std::string, uint64_t>& ctx) {
    uint64_t total = 0;
    for (uint64_t c : counts) total += c;
    ctx.Emit(word, total);
  });

  auto out = job.RunBlocking(std::vector<mr::SplitDesc>(docs.size()));
  std::map<std::string, uint64_t> sorted(out.records.begin(), out.records.end());
  for (const auto& [word, count] : sorted) {
    std::printf("  %-16s %llu\n", word.c_str(), static_cast<unsigned long long>(count));
  }
  std::printf("  (job took %.1f virtual seconds on the simulated cluster)\n\n",
              out.raw.stats.elapsed());
}

bool PartialSyncAct(cluster::SimCluster& sim) {
  std::printf("--- Act 2: partial synchronization (the paper's API) ---\n");
  // A ring of 64 cells, two partitions. Each cell repeatedly averages with
  // its ring neighbors; the fixed point is the global average. Internal
  // neighbors are handled by eager local iterations; the two edges crossing
  // the partition boundary are reconciled by the global reduce.
  constexpr uint32_t kCells = 64;
  std::vector<uint32_t> all(kCells);
  for (uint32_t i = 0; i < kCells; ++i) all[i] = i;
  std::vector<std::vector<uint32_t>> parts = {
      {all.begin(), all.begin() + kCells / 2}, {all.begin() + kCells / 2, all.end()}};
  std::vector<double> value(kCells);
  for (uint32_t i = 0; i < kCells; ++i) value[i] = i < kCells / 2 ? 0.0 : 10.0;

  using Psj = core::PartialSyncJob<uint32_t, uint32_t, double, core::SumCombine>;
  Psj::Config config;
  config.job.num_reducers = 2;
  config.job.write_output_to_dfs = false;
  config.local.max_local_iterations = 200;
  Psj psj(sim, config);

  // The gmap hashtable is dense: a cell's key is its index in its partition.
  constexpr uint32_t kPartCells = kCells / 2;
  auto part_of = [&](uint32_t cell) { return cell / kPartCells; };
  auto slot_of = [&](uint32_t cell) { return cell % kPartCells; };
  psj.set_partition_data(
      [&parts](uint32_t p) { return std::span<const uint32_t>(parts[p]); });
  psj.set_init_state([&](uint32_t p) {
    Psj::State state;
    for (uint32_t cell : parts[p]) state.push_back(value[cell]);
    return state;
  });
  // lmap: send half my value to each ring neighbor *within my partition*;
  // boundary contributions stay frozen until the global synchronization.
  psj.set_lmap([&](const uint32_t& cell, const Psj::State& s, Psj::Intermediate& out) {
    const uint32_t left = (cell + kCells - 1) % kCells;
    const uint32_t right = (cell + 1) % kCells;
    const double half = s[slot_of(cell)] / 2.0;
    for (uint32_t n : {left, right}) {
      if (part_of(n) == part_of(cell)) {
        out.EmitLocalIntermediate(slot_of(n), half);
      } else {
        out.EmitLocalIntermediate(slot_of(cell), half);  // reflect at the boundary
      }
    }
  });
  // lreduce receives each key's values already folded by SumCombine.
  psj.set_lreduce([](uint32_t, uint32_t slot, double sum, const Psj::State&,
                     Psj::LocalReduceCtx& ctx) { ctx.EmitLocal(slot, sum); });
  psj.set_local_convergence([](const Psj::State& prev, const Psj::State& next, uint32_t) {
    for (size_t i = 0; i < next.size(); ++i) {
      if (std::abs(next[i] - prev[i]) > 1e-9) return false;
    }
    return true;
  });
  // gmap output: each cell's halves, to both ring neighbors. greduce: sum
  // them, now exchanging the true boundary flows.
  psj.set_gemit([&](uint32_t p, const Psj::State& s,
                    mr::MapContext<uint32_t, double>& ctx) {
    for (uint32_t cell : parts[p]) {
      const uint32_t left = (cell + kCells - 1) % kCells;
      const uint32_t right = (cell + 1) % kCells;
      const double half = s[slot_of(cell)] / 2.0;
      ctx.Emit(left, half);
      ctx.Emit(right, half);
    }
  });
  psj.set_greduce([](const uint32_t& cell, const std::vector<double>& vs,
                     mr::ReduceContext<uint32_t, double>& ctx) {
    double sum = 0;
    for (double v : vs) sum += v;
    ctx.Emit(cell, sum);
  });

  // Mixing across the partition boundary happens only at the global
  // synchronization, so this takes about two hundred rounds.
  double residual = 1.0;
  for (uint32_t round = 0; round < 1000 && residual >= 1e-6; ++round) {
    auto out = psj.RunGlobalIteration(std::vector<mr::SplitDesc>(2));
    residual = 0;
    for (const auto& [cell, v] : out.records) {
      residual = std::max(residual, std::abs(v - value[cell]));
      value[cell] = v;
    }
    if (round % 50 == 0 || residual < 1e-6) {
      std::printf("  round %-3u residual %.2e (partial syncs this round: %u)\n",
                  round, residual, psj.last_local_iterations());
    }
  }
  // Every cell must print as the average, 5.0000.
  double worst = 0;
  for (double v : value) worst = std::max(worst, std::abs(v - 5.0));
  const bool correct = residual < 1e-6 && worst < 5e-5;
  std::printf("  consensus value ~ %.4f (expected 5.0), worst cell off by %.1e%s\n\n",
              value[0], worst, correct ? "" : " (MISMATCH)");
  return correct;
}

}  // namespace

int main(int argc, char** argv) {
  (void)BenchOptions::FromEnv(argc, argv);  // applies AMR_LOG_LEVEL/--log-level
  cluster::SimCluster sim(cluster::ClusterSpec::Ec2Large8());
  std::printf("asyncmr quickstart — simulated testbed: %s\n\n",
              sim.spec().Describe().c_str());
  WordCountAct(sim);
  const bool correct = PartialSyncAct(sim);
  std::printf("done. Explore examples/pagerank_web.cpp next.\n");
  return correct ? 0 : 1;
}
