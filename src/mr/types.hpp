// Shared MapReduce engine types: splits, per-task outputs, job configuration
// and results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/task.hpp"
#include "net/topology.hpp"
#include "serde/buffer.hpp"

namespace asyncmr::mr {

/// Describes one map input split: where its bytes live and how big it is.
/// The actual records are reachable from the map closure (in-memory state
/// or decoded DFS payload); SplitDesc carries only what the cost model and
/// locality scheduler need.
struct SplitDesc {
  std::string name;
  std::vector<net::NodeId> data_nodes;
  uint64_t input_bytes = 0;
};

/// What one map task materializes: an encoded KV stream per reducer.
struct MapTaskOutput {
  std::vector<serde::Buffer> per_reducer;
  uint64_t ops = 0;
  uint64_t records = 0;
  /// Compute-time multiplier (see cluster::WorkReport::time_scale).
  double time_scale = 1.0;

  uint64_t total_bytes() const {
    uint64_t sum = 0;
    for (const auto& b : per_reducer) sum += b.size();
    return sum;
  }
};

/// What one reduce task materializes: one encoded output stream.
struct ReduceTaskOutput {
  serde::Buffer output;
  uint64_t ops = 0;
  uint64_t records = 0;
};

struct JobConfig {
  std::string name = "job";
  uint32_t num_reducers = 8;
  /// Iteration outputs round-trip through the DFS (Hadoop behaviour the
  /// paper's Section VIII highlights as a dominant overhead). Disable only
  /// for terminal jobs whose output is consumed in memory.
  bool write_output_to_dfs = true;
  std::string output_path = "/out";
};

struct JobStats {
  double submit_time = 0.0;       // virtual time the job entered the system
  double maps_done_time = 0.0;    // end of map wave
  double reduce_done_time = 0.0;  // end of reduce wave
  double finish_time = 0.0;       // after output commit (DFS write)
  uint64_t map_output_bytes = 0;  // before node-level combining
  uint64_t shuffle_bytes = 0;     // actually moved through the network
  uint64_t map_records = 0;
  uint64_t reduce_records = 0;
  uint64_t total_ops = 0;
  uint32_t failed_attempts = 0;
  uint32_t speculative_attempts = 0;

  double elapsed() const { return finish_time - submit_time; }
};

struct JobResult {
  JobStats stats;
  cluster::WaveResult map_wave;
  cluster::WaveResult reduce_wave;
  /// Encoded reduce outputs (per reducer) and where each reducer ran.
  std::vector<serde::Buffer> reduce_outputs;
  std::vector<net::NodeId> reduce_nodes;
  /// DFS paths of committed outputs (when write_output_to_dfs).
  std::vector<std::string> output_files;
};

}  // namespace asyncmr::mr
