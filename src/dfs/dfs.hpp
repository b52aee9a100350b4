// Simulated distributed file system.
//
// Every General-MapReduce iteration writes its reduce output here and the
// next iteration's maps read it back — the "significant overhead" the paper's
// Section VIII calls out. Costs modeled per block: a namenode metadata
// round-trip, a replication pipeline of network flows (writer -> r1 -> r2,
// concurrent, HDFS-style), and disk time at each endpoint. File payloads are
// real bytes with a CRC32 recorded per block. Corruption is modeled, not
// detected: a replica flagged corrupt (BlockMeta::replica_corrupt) costs the
// reader a wasted disk read and the read falls over to the next replica, as
// in HDFS; no read path recomputes or compares the stored checksum.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dfs/namenode.hpp"
#include "net/network.hpp"
#include "serde/buffer.hpp"
#include "serde/checksum.hpp"
#include "sim/event_queue.hpp"

namespace asyncmr::dfs {

struct DfsConfig {
  uint64_t block_size_bytes = 64ull << 20;  // HDFS default, 64 MB
  uint32_t replication = 3;
  double namenode_latency_s = 2e-3;    // metadata round trip
  double disk_bandwidth_Bps = 80e6;    // 2010-era spinning disk
  double block_setup_latency_s = 1e-3; // pipeline setup per block
};

struct DfsStats {
  uint64_t files_written = 0;
  uint64_t files_read = 0;
  uint64_t bytes_written = 0;   // payload bytes x replication
  uint64_t bytes_read = 0;
  uint64_t read_retries = 0;    // replica failovers due to corruption
};

class Dfs {
 public:
  Dfs(sim::EventQueue& queue, net::Network& network, DfsConfig config,
      uint64_t seed = 7);

  Dfs(const Dfs&) = delete;
  Dfs& operator=(const Dfs&) = delete;

  using WriteCallback = std::function<void(Status)>;
  using ReadCallback = std::function<void(Result<serde::Buffer>)>;

  /// Writes `data` as `path` from node `writer`. Fails if the path exists.
  void WriteFile(net::NodeId writer, const std::string& path, serde::Buffer data,
                 WriteCallback on_done);

  /// Reads `path` into a buffer delivered at node `reader`.
  void ReadFile(net::NodeId reader, const std::string& path, ReadCallback on_done);

  Status Delete(const std::string& path);
  bool Exists(const std::string& path) const { return namenode_.Exists(path); }
  Result<const FileMeta*> Stat(const std::string& path) const {
    return namenode_.Stat(path);
  }

  /// Nodes holding replicas of `path` (locality hint for the scheduler).
  std::vector<net::NodeId> Locations(const std::string& path) const {
    return namenode_.Locations(path);
  }

  /// Fault injection: marks replica `replica_index` of every block corrupt.
  Status CorruptReplica(const std::string& path, uint32_t replica_index) {
    return namenode_.CorruptReplica(path, replica_index);
  }

  /// Closed-form duration of writing `bytes` through the replication
  /// pipeline: namenode round trip, per-block pipeline setup, and disk
  /// streaming (the replica hops overlap HDFS-style, so disk time counts
  /// once). Used for write-behind persistence — async worker checkpoints —
  /// that must be costed without scheduling flows, the same simplification
  /// the cluster applies to map input fetches.
  double EstimateWriteSeconds(uint64_t bytes) const;

  /// Closed-form duration of reading `bytes` back (namenode round trip,
  /// per-block setup, one disk pass). The async engine charges this into a
  /// crashed worker's recovery time.
  double EstimateReadSeconds(uint64_t bytes) const;

  const DfsConfig& config() const { return config_; }
  const DfsStats& stats() const { return stats_; }

 private:
  struct StoredFile {
    serde::Buffer data;
  };

  double DiskSeconds(uint64_t bytes) const {
    return static_cast<double>(bytes) / config_.disk_bandwidth_Bps;
  }

  /// Shared body of the write/read estimates (today reads and writes cost
  /// the same: metadata round trip + per-block setup + one disk pass; the
  /// public names exist so the two can diverge without touching callers).
  double EstimateAccessSeconds(uint64_t bytes) const;

  /// Picks the cheapest healthy replica for a reader; nullopt if all corrupt.
  static std::optional<uint32_t> PickReplica(const BlockMeta& block,
                                             net::NodeId reader,
                                             const net::Topology& topology,
                                             uint32_t start_index);

  sim::EventQueue& queue_;
  net::Network& network_;
  DfsConfig config_;
  NameNode namenode_;
  std::unordered_map<std::string, StoredFile> storage_;
  DfsStats stats_;
};

}  // namespace asyncmr::dfs
