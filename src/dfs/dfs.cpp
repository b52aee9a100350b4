#include "dfs/dfs.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace asyncmr::dfs {

Dfs::Dfs(sim::EventQueue& queue, net::Network& network, DfsConfig config,
         uint64_t seed)
    : queue_(queue),
      network_(network),
      config_(config),
      namenode_(network.topology(), config.replication, seed) {
  AMR_CHECK(config_.block_size_bytes > 0);
  AMR_CHECK_GE(config_.replication, 1u);
}

void Dfs::WriteFile(net::NodeId writer, const std::string& path,
                    serde::Buffer data, WriteCallback on_done) {
  // Namenode round-trip happens first; then the block pipelines stream.
  queue_.ScheduleAfter(config_.namenode_latency_s, [this, writer, path,
                                                    data = std::move(data),
                                                    on_done = std::move(on_done)]() mutable {
    if (namenode_.Exists(path)) {
      on_done(Status::AlreadyExists("file exists: " + path));
      return;
    }

    FileMeta meta;
    meta.path = path;
    meta.size_bytes = data.size();

    struct WriteState {
      uint32_t pending_hops = 0;
      WriteCallback cb;
    };
    auto state = std::make_shared<WriteState>();
    state->cb = std::move(on_done);

    const uint64_t nblocks =
        std::max<uint64_t>(1, (data.size() + config_.block_size_bytes - 1) /
                                  config_.block_size_bytes);
    for (uint64_t b = 0; b < nblocks; ++b) {
      const uint64_t offset = b * config_.block_size_bytes;
      const uint64_t size =
          std::min<uint64_t>(config_.block_size_bytes, data.size() - offset);
      BlockMeta block;
      block.id = namenode_.NextBlockId();
      block.size_bytes = size;
      block.checksum = serde::Crc32({data.data() + offset, size});
      block.replicas = namenode_.PlaceReplicas(writer);
      block.replica_corrupt.assign(block.replicas.size(), false);

      // Replication pipeline: hops writer->r0, r0->r1, ... started together
      // (HDFS streams packets through the chain), each hop tailed by a disk
      // write at the receiving replica.
      for (size_t i = 0; i < block.replicas.size(); ++i) {
        const net::NodeId hop_src = i == 0 ? writer : block.replicas[i - 1];
        const net::NodeId hop_dst = block.replicas[i];
        ++state->pending_hops;
        stats_.bytes_written += size;
        const double disk_s = DiskSeconds(size);
        queue_.ScheduleAfter(config_.block_setup_latency_s, [this, hop_src, hop_dst,
                                                             size, disk_s, state] {
          network_.Transfer(hop_src, hop_dst, size, [this, disk_s, state] {
            queue_.ScheduleAfter(disk_s, [state] {
              if (--state->pending_hops == 0) state->cb(Status::Ok());
            });
          });
        });
      }
      meta.blocks.push_back(std::move(block));
    }

    storage_[path] = StoredFile{std::move(data)};
    const Status st = namenode_.Create(std::move(meta));
    AMR_CHECK(st.ok()) << st.ToString();
    ++stats_.files_written;
  });
}

std::optional<uint32_t> Dfs::PickReplica(const BlockMeta& block, net::NodeId reader,
                                         const net::Topology& topology,
                                         uint32_t start_index) {
  // Preference: local replica, then same rack, then anything — skipping
  // replicas already tried (start_index counts prior failovers).
  std::vector<uint32_t> order(block.replicas.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    auto cost = [&](uint32_t idx) {
      const net::NodeId n = block.replicas[idx];
      if (n == reader) return 0;
      if (topology.SameRack(n, reader)) return 1;
      return 2;
    };
    return cost(a) < cost(b);
  });
  for (uint32_t rank = start_index; rank < order.size(); ++rank) {
    if (!block.replica_corrupt[order[rank]]) return order[rank];
  }
  return std::nullopt;
}

void Dfs::ReadFile(net::NodeId reader, const std::string& path,
                   ReadCallback on_done) {
  queue_.ScheduleAfter(config_.namenode_latency_s, [this, reader, path,
                                                    on_done = std::move(on_done)]() mutable {
    auto meta = namenode_.Stat(path);
    if (!meta.ok()) {
      on_done(meta.status());
      return;
    }
    auto stored = storage_.find(path);
    AMR_CHECK(stored != storage_.end()) << "namenode/storage divergence for " << path;

    struct ReadState {
      uint32_t pending_blocks = 0;
      bool failed = false;
      ReadCallback cb;
      serde::Buffer result;
    };
    auto state = std::make_shared<ReadState>();
    state->cb = std::move(on_done);
    state->result = stored->second.data;  // bytes delivered on success
    state->pending_blocks = static_cast<uint32_t>(meta.value()->blocks.size());

    if (state->pending_blocks == 0) {
      state->cb(std::move(state->result));
      return;
    }

    for (const BlockMeta& block : meta.value()->blocks) {
      // Walk the preference order; each corrupt replica encountered costs a
      // wasted disk read (in HDFS the checksum fails only after the bytes are
      // read).
      double failover_delay = 0.0;
      uint32_t attempt = 0;
      std::optional<uint32_t> choice;
      while (true) {
        choice = PickReplica(block, reader, network_.topology(), attempt);
        if (!choice.has_value()) break;
        if (!block.replica_corrupt[*choice]) break;
        ++attempt;
      }
      // PickReplica already skips corrupt replicas; count them for the delay.
      uint32_t corrupt_count = 0;
      for (bool c : block.replica_corrupt) {
        if (c) ++corrupt_count;
      }
      if (corrupt_count > 0 && choice.has_value()) {
        stats_.read_retries += corrupt_count;
        failover_delay = corrupt_count * DiskSeconds(block.size_bytes);
      }

      if (!choice.has_value()) {
        state->failed = true;
        if (--state->pending_blocks == 0) {
          state->cb(Status::DataLoss("all replicas corrupt: " + path));
        }
        continue;
      }

      const net::NodeId src = block.replicas[*choice];
      const uint64_t size = block.size_bytes;
      stats_.bytes_read += size;
      queue_.ScheduleAfter(failover_delay + DiskSeconds(size), [this, src, reader,
                                                                size, state, path] {
        network_.Transfer(src, reader, size, [state, path] {
          if (--state->pending_blocks == 0) {
            if (state->failed) {
              state->cb(Status::DataLoss("all replicas corrupt: " + path));
            } else {
              state->cb(std::move(state->result));
            }
          }
        });
      });
    }
    ++stats_.files_read;
  });
}

double Dfs::EstimateAccessSeconds(uint64_t bytes) const {
  const uint64_t nblocks =
      std::max<uint64_t>(1, (bytes + config_.block_size_bytes - 1) /
                                config_.block_size_bytes);
  return config_.namenode_latency_s +
         static_cast<double>(nblocks) * config_.block_setup_latency_s +
         DiskSeconds(bytes);
}

double Dfs::EstimateWriteSeconds(uint64_t bytes) const {
  return EstimateAccessSeconds(bytes);
}

double Dfs::EstimateReadSeconds(uint64_t bytes) const {
  return EstimateAccessSeconds(bytes);
}

Status Dfs::Delete(const std::string& path) {
  AMR_RETURN_IF_ERROR(namenode_.Delete(path));
  storage_.erase(path);
  return Status::Ok();
}

}  // namespace asyncmr::dfs
