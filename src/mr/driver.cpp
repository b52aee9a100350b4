#include "mr/driver.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <utility>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace asyncmr::mr {

namespace {

/// Shared continuation state for one running job.
struct JobState {
  JobConfig config;
  cluster::SimCluster* cluster = nullptr;
  std::vector<SplitDesc> splits;
  MapWork map_work;
  ReduceWork reduce_work;
  NodeCombineWork node_combine;
  std::function<void(JobResult)> on_done;

  JobResult result;
  std::vector<MapTaskOutput> map_outputs;             // per map task
  // Streams to shuffle, grouped by (map node, reducer). Either borrowed from
  // map_outputs or owned combined buffers.
  std::map<std::pair<net::NodeId, uint32_t>, std::vector<const serde::Buffer*>>
      node_streams;
  // Owns node-combined buffers; a deque so growth never invalidates the
  // pointers node_streams holds into earlier elements.
  std::deque<serde::Buffer> combined_owned;
  uint32_t pending_dfs_writes = 0;
};

void FinishJob(const std::shared_ptr<JobState>& st) {
  st->result.stats.finish_time = st->cluster->now();
  st->result.stats.total_ops =
      st->result.map_wave.total_ops + st->result.reduce_wave.total_ops;
  st->result.stats.failed_attempts = st->result.map_wave.failed_attempts +
                                     st->result.reduce_wave.failed_attempts;
  st->result.stats.speculative_attempts =
      st->result.map_wave.speculative_attempts +
      st->result.reduce_wave.speculative_attempts;
  st->on_done(std::move(st->result));
}

void CommitOutputs(const std::shared_ptr<JobState>& st) {
  if (!st->config.write_output_to_dfs) {
    FinishJob(st);
    return;
  }
  const uint32_t r_count = st->config.num_reducers;
  st->pending_dfs_writes = r_count;
  for (uint32_t r = 0; r < r_count; ++r) {
    const std::string path =
        st->config.output_path + "/part-r-" + std::to_string(r);
    st->result.output_files.push_back(path);
    serde::Buffer copy = st->result.reduce_outputs[r];  // DFS stores the bytes
    st->cluster->dfs().WriteFile(
        st->result.reduce_nodes[r], path, std::move(copy),
        [st, path](Status status) {
          AMR_CHECK(status.ok()) << "output commit failed for " << path << ": "
                                 << status.ToString();
          if (--st->pending_dfs_writes == 0) FinishJob(st);
        });
  }
}

void StartReduceWave(const std::shared_ptr<JobState>& st,
                     cluster::WaveResult map_wave) {
  st->result.stats.maps_done_time = st->cluster->now();

  // Group map-output streams by the node each map task actually ran on.
  for (const cluster::TaskOutcome& outcome : map_wave.tasks) {
    MapTaskOutput& out = st->map_outputs[outcome.task_index];
    st->result.stats.map_output_bytes += out.total_bytes();
    st->result.stats.map_records += out.records;
    for (uint32_t r = 0; r < st->config.num_reducers; ++r) {
      if (out.per_reducer[r].empty()) continue;
      st->node_streams[{outcome.node, r}].push_back(&out.per_reducer[r]);
    }
  }
  st->result.map_wave = std::move(map_wave);

  // Optional node-level combine: shrink each (node, reducer) group to one
  // stream before it crosses the network.
  if (st->node_combine) {
    for (auto& [key, buffers] : st->node_streams) {
      if (buffers.size() < 2) continue;
      st->combined_owned.push_back(st->node_combine(key.second, buffers));
      buffers.clear();
      buffers.push_back(&st->combined_owned.back());
    }
  }

  // Build one reduce task per reducer; fetches pull from each map node.
  std::vector<cluster::TaskSpec> tasks(st->config.num_reducers);
  std::vector<std::vector<const serde::Buffer*>> reduce_inputs(
      st->config.num_reducers);
  for (const auto& [key, buffers] : st->node_streams) {
    const auto& [node, r] = key;
    uint64_t bytes = 0;
    for (const auto* b : buffers) bytes += b->size();
    tasks[r].fetches.emplace_back(node, bytes);
    st->result.stats.shuffle_bytes += bytes;
    reduce_inputs[r].insert(reduce_inputs[r].end(), buffers.begin(), buffers.end());
  }
  st->result.reduce_outputs.resize(st->config.num_reducers);
  st->result.reduce_nodes.resize(st->config.num_reducers);
  auto reduce_results = std::make_shared<std::vector<ReduceTaskOutput>>(
      st->config.num_reducers);
  for (uint32_t r = 0; r < st->config.num_reducers; ++r) {
    tasks[r].name = st->config.name + "-reduce-" + std::to_string(r);
    // Merge cost: fetched bytes pass through the local disk before reduction
    // (Hadoop's on-disk merge). data_nodes empty => charged at disk rate.
    uint64_t fetch_bytes = 0;
    for (const auto& [node, bytes] : tasks[r].fetches) fetch_bytes += bytes;
    tasks[r].input_bytes = fetch_bytes;
    tasks[r].work = [st, r, inputs = std::move(reduce_inputs[r]), reduce_results] {
      ReduceTaskOutput out = st->reduce_work(r, inputs);
      cluster::WorkReport report;
      report.ops = out.ops;
      report.output_bytes = out.output.size();
      (*reduce_results)[r] = std::move(out);
      return report;
    };
  }

  st->cluster->RunWave(std::move(tasks), cluster::SlotType::kReduce,
                       [st, reduce_results](cluster::WaveResult wave) {
                         st->result.stats.reduce_done_time = st->cluster->now();
                         for (const cluster::TaskOutcome& o : wave.tasks) {
                           ReduceTaskOutput& out = (*reduce_results)[o.task_index];
                           st->result.stats.reduce_records += out.records;
                           st->result.reduce_outputs[o.task_index] =
                               std::move(out.output);
                           st->result.reduce_nodes[o.task_index] = o.node;
                         }
                         st->result.reduce_wave = std::move(wave);
                         CommitOutputs(st);
                       });
}

void StartMapWave(const std::shared_ptr<JobState>& st) {
  std::vector<cluster::TaskSpec> tasks(st->splits.size());
  st->map_outputs.resize(st->splits.size());
  for (uint32_t i = 0; i < st->splits.size(); ++i) {
    tasks[i].name = st->config.name + "-map-" + std::to_string(i);
    tasks[i].data_nodes = st->splits[i].data_nodes;
    tasks[i].input_bytes = st->splits[i].input_bytes;
    tasks[i].work = [st, i] {
      MapTaskOutput out = st->map_work(i);
      AMR_CHECK_EQ(out.per_reducer.size(), st->config.num_reducers)
          << "mapper produced wrong reducer fan-out";
      cluster::WorkReport report;
      report.ops = out.ops;
      report.output_bytes = out.total_bytes();  // spill to local disk
      report.time_scale = out.time_scale;
      st->map_outputs[i] = std::move(out);
      return report;
    };
  }
  st->cluster->RunWave(std::move(tasks), cluster::SlotType::kMap,
                       [st](cluster::WaveResult wave) {
                         StartReduceWave(st, std::move(wave));
                       });
}

}  // namespace

void JobDriver::Run(std::vector<SplitDesc> splits, MapWork map_work,
                    ReduceWork reduce_work, NodeCombineWork node_combine,
                    std::function<void(JobResult)> on_done) {
  AMR_CHECK_GE(config_.num_reducers, 1u);
  AMR_CHECK(!splits.empty()) << "job needs at least one split";
  auto st = std::make_shared<JobState>();
  st->config = config_;
  st->cluster = &cluster_;
  st->splits = std::move(splits);
  st->map_work = std::move(map_work);
  st->reduce_work = std::move(reduce_work);
  st->node_combine = std::move(node_combine);
  st->on_done = std::move(on_done);
  st->result.stats.submit_time = cluster_.now();

  cluster_.queue().ScheduleAfter(cluster_.spec().job_submit_overhead_s,
                                 [st] { StartMapWave(st); });
}

JobResult JobDriver::RunBlocking(std::vector<SplitDesc> splits, MapWork map_work,
                                 ReduceWork reduce_work,
                                 NodeCombineWork node_combine) {
  std::optional<JobResult> result;
  Run(std::move(splits), std::move(map_work), std::move(reduce_work),
      std::move(node_combine), [&result](JobResult r) { result = std::move(r); });
  cluster_.RunUntilIdle();
  AMR_CHECK(result.has_value()) << "job did not complete";
  return std::move(*result);
}

std::vector<SplitDesc> SplitsFromDfs(cluster::SimCluster& cluster,
                                     const std::vector<std::string>& paths) {
  std::vector<SplitDesc> splits;
  splits.reserve(paths.size());
  for (const std::string& path : paths) {
    auto meta = cluster.dfs().Stat(path);
    AMR_CHECK(meta.ok()) << meta.status().ToString();
    SplitDesc split;
    split.name = path;
    split.input_bytes = meta.value()->size_bytes;
    split.data_nodes = cluster.dfs().Locations(path);
    splits.push_back(std::move(split));
  }
  return splits;
}

}  // namespace asyncmr::mr
