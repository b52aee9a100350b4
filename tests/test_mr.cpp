// Unit tests: MapReduce engine — word count, combiners, shuffle accounting,
// DFS output commit, counters, iterative chaining.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "mr/job.hpp"

namespace asyncmr::mr {
namespace {

cluster::ClusterSpec QuietSpec() {
  auto spec = cluster::ClusterSpec::Ec2Large8();
  spec.straggler_prob = 0.0;
  spec.speed_jitter = 0.0;
  return spec;
}

// The canonical MapReduce example, typed end to end.
std::vector<std::vector<std::string>> WordCountInput() {
  return {
      {"the", "quick", "brown", "fox"},
      {"the", "lazy", "dog"},
      {"the", "fox", "jumps"},
  };
}

TEST(MrJob, WordCount) {
  cluster::SimCluster cluster(QuietSpec());
  const auto docs = WordCountInput();
  JobConfig config;
  config.name = "wordcount";
  config.num_reducers = 4;
  config.output_path = "/wc";

  Job<std::string, uint64_t, std::string, uint64_t> job(cluster, config);
  job.set_mapper([&docs](uint32_t split, MapContext<std::string, uint64_t>& ctx) {
    for (const auto& word : docs[split]) ctx.Emit(word, 1);
  });
  job.set_reducer([](const std::string& word, const std::vector<uint64_t>& counts,
                     ReduceContext<std::string, uint64_t>& ctx) {
    uint64_t total = 0;
    for (uint64_t c : counts) total += c;
    ctx.Emit(word, total);
  });

  auto out = job.RunBlocking(std::vector<SplitDesc>(3));
  std::map<std::string, uint64_t> counts(out.records.begin(), out.records.end());
  EXPECT_EQ(counts["the"], 3u);
  EXPECT_EQ(counts["fox"], 2u);
  EXPECT_EQ(counts["dog"], 1u);
  EXPECT_EQ(counts.size(), 7u);  // the quick brown fox lazy dog jumps
  EXPECT_GT(out.raw.stats.finish_time, out.raw.stats.submit_time);
}

TEST(MrJob, ReduceGroupsDuplicateKeysInArrivalOrder) {
  // The sort-based grouping must hand the reducer every value of a key (from
  // all map tasks), keys in sorted order, and each key's values in map-output
  // arrival order — the contract the old hash-grouping provided.
  cluster::SimCluster cluster(QuietSpec());
  JobConfig config;
  config.name = "dupkeys";
  config.num_reducers = 1;  // single reducer: global arrival order is fixed

  Job<uint32_t, uint64_t, uint32_t, uint64_t> job(cluster, config);
  // Split s emits (k, 10*s + i) for each key k in {0,1,2}, i in 0..2.
  job.set_mapper([](uint32_t split, MapContext<uint32_t, uint64_t>& ctx) {
    for (uint32_t i = 0; i < 3; ++i) {
      for (uint32_t k = 0; k < 3; ++k) ctx.Emit(k, 10 * split + i);
    }
  });
  std::vector<std::pair<uint32_t, std::vector<uint64_t>>> seen;
  job.set_reducer([&seen](const uint32_t& key, const std::vector<uint64_t>& values,
                          ReduceContext<uint32_t, uint64_t>& ctx) {
    seen.emplace_back(key, values);
    ctx.Emit(key, values.size());
  });

  auto out = job.RunBlocking(std::vector<SplitDesc>(2));
  ASSERT_EQ(seen.size(), 3u);
  // Values arrive per input stream in emission order; the engine fixes the
  // stream (map task) order by fetch completion, identically for every key.
  const std::vector<uint64_t> split_first{0, 1, 2, 10, 11, 12};
  const std::vector<uint64_t> split_second{10, 11, 12, 0, 1, 2};
  const bool first_stream_is_split0 = (seen[0].second == split_first);
  for (uint32_t k = 0; k < 3; ++k) {
    EXPECT_EQ(seen[k].first, k);  // keys in sorted order
    EXPECT_EQ(seen[k].second, first_stream_is_split0 ? split_first : split_second);
  }
  ASSERT_EQ(out.records.size(), 3u);
  for (const auto& [k, n] : out.records) EXPECT_EQ(n, 6u);
}

TEST(MrJob, CombinerReducesShuffleBytes) {
  auto run = [](bool combine) {
    cluster::SimCluster cluster(QuietSpec());
    JobConfig config;
    config.num_reducers = 2;
    config.write_output_to_dfs = false;
    Job<uint32_t, uint64_t, uint32_t, uint64_t> job(cluster, config);
    if (combine) {
      job.set_combiner([](const uint64_t& a, const uint64_t& b) { return a + b; });
    }
    job.set_mapper([](uint32_t, MapContext<uint32_t, uint64_t>& ctx) {
      for (int i = 0; i < 1000; ++i) ctx.Emit(i % 10, 1);  // few hot keys
    });
    job.set_reducer([](const uint32_t& k, const std::vector<uint64_t>& vs,
                       ReduceContext<uint32_t, uint64_t>& ctx) {
      uint64_t total = 0;
      for (auto v : vs) total += v;
      ctx.Emit(k, total);
    });
    return job.RunBlocking(std::vector<SplitDesc>(4));
  };
  auto plain = run(false);
  auto combined = run(true);
  EXPECT_LT(combined.raw.stats.shuffle_bytes, plain.raw.stats.shuffle_bytes / 10);
  // Same answer either way.
  std::map<uint32_t, uint64_t> a(plain.records.begin(), plain.records.end());
  std::map<uint32_t, uint64_t> b(combined.records.begin(), combined.records.end());
  EXPECT_EQ(a, b);
  for (const auto& [k, v] : a) EXPECT_EQ(v, 400u);  // 4 splits x 100 each
}

TEST(MrJob, NodeCombinerAlsoCorrect) {
  cluster::SimCluster cluster(QuietSpec());
  JobConfig config;
  config.num_reducers = 2;
  config.write_output_to_dfs = false;
  Job<uint32_t, uint64_t, uint32_t, uint64_t> job(cluster, config);
  job.set_combiner([](const uint64_t& a, const uint64_t& b) { return a + b; },
                   CombineScope::kTaskAndNode);
  job.set_mapper([](uint32_t, MapContext<uint32_t, uint64_t>& ctx) {
    for (int i = 0; i < 100; ++i) ctx.Emit(i % 5, 1);
  });
  job.set_reducer([](const uint32_t& k, const std::vector<uint64_t>& vs,
                     ReduceContext<uint32_t, uint64_t>& ctx) {
    uint64_t total = 0;
    for (auto v : vs) total += v;
    ctx.Emit(k, total);
  });
  auto out = job.RunBlocking(std::vector<SplitDesc>(8));
  std::map<uint32_t, uint64_t> counts(out.records.begin(), out.records.end());
  for (const auto& [k, v] : counts) EXPECT_EQ(v, 160u);  // 8 splits x 20
}

TEST(MrJob, OutputCommittedToDfs) {
  cluster::SimCluster cluster(QuietSpec());
  JobConfig config;
  config.num_reducers = 3;
  config.output_path = "/out1";
  Job<uint32_t, double, uint32_t, double> job(cluster, config);
  job.set_mapper([](uint32_t, MapContext<uint32_t, double>& ctx) {
    for (uint32_t i = 0; i < 30; ++i) ctx.Emit(i, 1.0);
  });
  job.set_reducer([](const uint32_t& k, const std::vector<double>& vs,
                     ReduceContext<uint32_t, double>& ctx) {
    ctx.Emit(k, static_cast<double>(vs.size()));
  });
  auto out = job.RunBlocking(std::vector<SplitDesc>(2));
  ASSERT_EQ(out.raw.output_files.size(), 3u);
  for (const auto& path : out.raw.output_files) {
    EXPECT_TRUE(cluster.dfs().Exists(path)) << path;
  }
  // Chaining: the committed files make valid splits for a next iteration.
  const auto splits = SplitsFromDfs(cluster, out.raw.output_files);
  ASSERT_EQ(splits.size(), 3u);
  for (const auto& s : splits) EXPECT_FALSE(s.data_nodes.empty());
}

TEST(MrJob, ReducerKeysAreSortedWithinReducer) {
  cluster::SimCluster cluster(QuietSpec());
  JobConfig config;
  config.num_reducers = 1;
  config.write_output_to_dfs = false;
  Job<uint32_t, uint32_t, uint32_t, uint32_t> job(cluster, config);
  job.set_mapper([](uint32_t, MapContext<uint32_t, uint32_t>& ctx) {
    for (uint32_t i = 100; i > 0; --i) ctx.Emit(i, i);
  });
  std::vector<uint32_t> seen;
  job.set_reducer([&seen](const uint32_t& k, const std::vector<uint32_t>&,
                          ReduceContext<uint32_t, uint32_t>& ctx) {
    seen.push_back(k);
    ctx.Emit(k, k);
  });
  job.RunBlocking(std::vector<SplitDesc>(1));
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.size(), 100u);
}

TEST(MrJob, ShuffleBytesMatchMapOutputWithoutCombiner) {
  cluster::SimCluster cluster(QuietSpec());
  JobConfig config;
  config.num_reducers = 4;
  config.write_output_to_dfs = false;
  Job<uint32_t, uint64_t, uint32_t, uint64_t> job(cluster, config);
  job.set_mapper([](uint32_t, MapContext<uint32_t, uint64_t>& ctx) {
    for (uint32_t i = 0; i < 50; ++i) ctx.Emit(i, i);
  });
  job.set_reducer([](const uint32_t& k, const std::vector<uint64_t>&,
                     ReduceContext<uint32_t, uint64_t>& ctx) { ctx.Emit(k, 0); });
  auto out = job.RunBlocking(std::vector<SplitDesc>(3));
  EXPECT_EQ(out.raw.stats.shuffle_bytes, out.raw.stats.map_output_bytes);
  EXPECT_EQ(out.raw.stats.map_records, 150u);
}

TEST(MrJob, SurvivesTaskFailures) {
  auto spec = QuietSpec();
  spec.task_failure_prob = 0.25;
  spec.seed = 7;
  cluster::SimCluster cluster(spec);
  JobConfig config;
  config.num_reducers = 4;
  config.write_output_to_dfs = false;
  Job<uint32_t, uint64_t, uint32_t, uint64_t> job(cluster, config);
  job.set_mapper([](uint32_t split, MapContext<uint32_t, uint64_t>& ctx) {
    for (uint32_t i = 0; i < 20; ++i) ctx.Emit(split * 100 + i, 1);
  });
  job.set_reducer([](const uint32_t& k, const std::vector<uint64_t>& vs,
                     ReduceContext<uint32_t, uint64_t>& ctx) {
    ctx.Emit(k, vs.size());
  });
  auto out = job.RunBlocking(std::vector<SplitDesc>(10));
  EXPECT_EQ(out.records.size(), 200u);  // all distinct keys survive failures
  for (const auto& [k, v] : out.records) EXPECT_EQ(v, 1u);
}

TEST(MrJob, MultiIterationChainingThroughDfs) {
  // Iteratively double values, chaining job outputs as next-job inputs.
  cluster::SimCluster cluster(QuietSpec());
  std::vector<std::pair<uint32_t, uint64_t>> state{{0, 1}, {1, 1}, {2, 1}};
  std::vector<std::string> prev_outputs;
  for (int iter = 0; iter < 3; ++iter) {
    JobConfig config;
    config.num_reducers = 2;
    config.output_path = "/chain/it" + std::to_string(iter);
    Job<uint32_t, uint64_t, uint32_t, uint64_t> job(cluster, config);
    job.set_mapper([&state](uint32_t, MapContext<uint32_t, uint64_t>& ctx) {
      for (const auto& [k, v] : state) ctx.Emit(k, v * 2);
    });
    job.set_reducer([](const uint32_t& k, const std::vector<uint64_t>& vs,
                       ReduceContext<uint32_t, uint64_t>& ctx) {
      ctx.Emit(k, vs[0]);
    });
    std::vector<SplitDesc> splits =
        prev_outputs.empty() ? std::vector<SplitDesc>(1)
                             : SplitsFromDfs(cluster, prev_outputs);
    auto out = job.RunBlocking(std::move(splits));
    state = out.records;
    prev_outputs = out.raw.output_files;
  }
  std::map<uint32_t, uint64_t> final_state(state.begin(), state.end());
  for (const auto& [k, v] : final_state) EXPECT_EQ(v, 8u);  // 1 * 2^3
}

TEST(MrJob, JobTimeIncludesSubmitOverhead) {
  auto spec = QuietSpec();
  spec.job_submit_overhead_s = 100.0;
  cluster::SimCluster cluster(spec);
  JobConfig config;
  config.num_reducers = 1;
  config.write_output_to_dfs = false;
  Job<uint32_t, uint32_t, uint32_t, uint32_t> job(cluster, config);
  job.set_mapper([](uint32_t, MapContext<uint32_t, uint32_t>& ctx) { ctx.Emit(0, 0); });
  job.set_reducer([](const uint32_t& k, const std::vector<uint32_t>&,
                     ReduceContext<uint32_t, uint32_t>& ctx) { ctx.Emit(k, 0); });
  auto out = job.RunBlocking(std::vector<SplitDesc>(1));
  EXPECT_GT(out.raw.stats.elapsed(), 100.0);
}

}  // namespace
}  // namespace asyncmr::mr
