// Unit tests: simulated DFS — metadata, replication, costs, corruption.
#include <gtest/gtest.h>

#include "dfs/dfs.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"

namespace asyncmr::dfs {
namespace {

class DfsTest : public ::testing::Test {
 protected:
  DfsTest()
      : topo_([] {
          net::TopologyConfig cfg;
          cfg.num_nodes = 8;
          cfg.nodes_per_rack = 4;
          return cfg;
        }()),
        network_(queue_, topo_),
        dfs_(queue_, network_, DfsConfig{}) {}

  serde::Buffer MakeData(size_t n) {
    serde::Buffer buf;
    for (size_t i = 0; i < n; ++i) buf.AppendByte(static_cast<uint8_t>(i));
    return buf;
  }

  Status Write(net::NodeId node, const std::string& path, serde::Buffer data) {
    Status out = Status::Internal("callback not run");
    dfs_.WriteFile(node, path, std::move(data), [&](Status s) { out = s; });
    queue_.RunUntilEmpty();
    return out;
  }

  Result<serde::Buffer> Read(net::NodeId node, const std::string& path) {
    Result<serde::Buffer> out = Status::Internal("callback not run");
    dfs_.ReadFile(node, path, [&](Result<serde::Buffer> r) { out = std::move(r); });
    queue_.RunUntilEmpty();
    return out;
  }

  sim::EventQueue queue_;
  net::Topology topo_;
  net::Network network_;
  Dfs dfs_;
};

TEST_F(DfsTest, WriteReadRoundTrip) {
  auto data = MakeData(1000);
  ASSERT_TRUE(Write(0, "/f", data).ok());
  auto read = Read(3, "/f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), data);
  EXPECT_EQ(dfs_.stats().files_written, 1u);
  EXPECT_EQ(dfs_.stats().files_read, 1u);
}

TEST_F(DfsTest, DuplicateWriteFails) {
  ASSERT_TRUE(Write(0, "/f", MakeData(10)).ok());
  EXPECT_EQ(Write(1, "/f", MakeData(10)).code(), StatusCode::kAlreadyExists);
}

TEST_F(DfsTest, ReadMissingFails) {
  EXPECT_EQ(Read(0, "/missing").status().code(), StatusCode::kNotFound);
}

TEST_F(DfsTest, ReplicationPlacement) {
  ASSERT_TRUE(Write(2, "/f", MakeData(100)).ok());
  auto meta = dfs_.Stat("/f");
  ASSERT_TRUE(meta.ok());
  ASSERT_EQ(meta.value()->blocks.size(), 1u);
  const auto& replicas = meta.value()->blocks[0].replicas;
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_EQ(replicas[0], 2u);  // first replica on the writer
  // Second replica off-rack (HDFS policy).
  EXPECT_FALSE(topo_.SameRack(replicas[0], replicas[1]));
  // All replicas distinct.
  EXPECT_NE(replicas[0], replicas[1]);
  EXPECT_NE(replicas[1], replicas[2]);
  EXPECT_NE(replicas[0], replicas[2]);
}

TEST_F(DfsTest, MultiBlockFiles) {
  DfsConfig cfg;
  cfg.block_size_bytes = 64;
  Dfs small(queue_, network_, cfg);
  Status status = Status::Internal("pending");
  small.WriteFile(0, "/big", MakeData(1000), [&](Status s) { status = s; });
  queue_.RunUntilEmpty();
  ASSERT_TRUE(status.ok());
  auto meta = small.Stat("/big");
  EXPECT_EQ(meta.value()->blocks.size(), 16u);  // ceil(1000/64)
  EXPECT_EQ(meta.value()->size_bytes, 1000u);
}

TEST_F(DfsTest, BlockChecksumsCoverTheirSlices) {
  DfsConfig cfg;
  cfg.block_size_bytes = 64;
  Dfs small(queue_, network_, cfg);
  const serde::Buffer data = MakeData(1000);  // 15 full blocks and a 40-byte tail
  Status status = Status::Internal("pending");
  small.WriteFile(0, "/sums", data, [&](Status s) { status = s; });
  queue_.RunUntilEmpty();
  ASSERT_TRUE(status.ok());
  const auto meta = small.Stat("/sums");
  ASSERT_TRUE(meta.ok());
  const auto& blocks = meta.value()->blocks;
  ASSERT_EQ(blocks.size(), 16u);
  for (size_t i = 0; i < blocks.size(); ++i) {
    const std::span<const uint8_t> slice =
        data.view().subspan(i * 64, blocks[i].size_bytes);
    // The byte-at-a-time CRC-32, independent of the sliced implementation.
    uint32_t crc = 0xFFFFFFFFu;
    for (uint8_t b : slice) {
      crc ^= b;
      for (int k = 0; k < 8; ++k) crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    EXPECT_EQ(blocks[i].checksum, crc ^ 0xFFFFFFFFu) << "block " << i;
  }
  EXPECT_EQ(blocks.back().size_bytes, 40u);
}

TEST_F(DfsTest, LocationsCoverReplicas) {
  ASSERT_TRUE(Write(1, "/f", MakeData(256)).ok());
  const auto locations = dfs_.Locations("/f");
  EXPECT_EQ(locations.size(), 3u);
  EXPECT_TRUE(std::find(locations.begin(), locations.end(), 1u) != locations.end());
}

TEST_F(DfsTest, DeleteRemoves) {
  ASSERT_TRUE(Write(0, "/f", MakeData(10)).ok());
  ASSERT_TRUE(dfs_.Delete("/f").ok());
  EXPECT_FALSE(dfs_.Exists("/f"));
  EXPECT_EQ(dfs_.Delete("/f").code(), StatusCode::kNotFound);
}

TEST_F(DfsTest, CorruptReplicaFailsOver) {
  ASSERT_TRUE(Write(0, "/f", MakeData(512)).ok());
  // Corrupt the local (preferred) replica; read from the writer node so the
  // corrupt copy would be chosen first.
  ASSERT_TRUE(dfs_.CorruptReplica("/f", 0).ok());
  auto read = Read(0, "/f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().size(), 512u);
  EXPECT_GT(dfs_.stats().read_retries, 0u);
}

TEST_F(DfsTest, AllReplicasCorruptIsDataLoss) {
  ASSERT_TRUE(Write(0, "/f", MakeData(64)).ok());
  for (uint32_t r = 0; r < 3; ++r) ASSERT_TRUE(dfs_.CorruptReplica("/f", r).ok());
  EXPECT_EQ(Read(0, "/f").status().code(), StatusCode::kDataLoss);
}

TEST_F(DfsTest, LocalReadCheaperThanRemote) {
  ASSERT_TRUE(Write(0, "/f", MakeData(4'000'000)).ok());
  const auto locations = dfs_.Locations("/f");
  // Pick a reader holding no replica.
  net::NodeId remote_reader = 0;
  for (net::NodeId n = 0; n < 8; ++n) {
    if (std::find(locations.begin(), locations.end(), n) == locations.end()) {
      remote_reader = n;
      break;
    }
  }
  const double t0 = queue_.now();
  ASSERT_TRUE(Read(0, "/f").ok());  // local replica
  const double local_time = queue_.now() - t0;
  const double t1 = queue_.now();
  ASSERT_TRUE(Read(remote_reader, "/f").ok());
  const double remote_time = queue_.now() - t1;
  EXPECT_LT(local_time, remote_time);
}

TEST_F(DfsTest, BytesWrittenCountReplication) {
  ASSERT_TRUE(Write(0, "/f", MakeData(1000)).ok());
  EXPECT_EQ(dfs_.stats().bytes_written, 3000u);  // 3 replicas
}

TEST_F(DfsTest, EmptyFileRoundTrip) {
  ASSERT_TRUE(Write(0, "/empty", serde::Buffer{}).ok());
  auto read = Read(5, "/empty");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().empty());
}

TEST(NameNode, PlacementOnTinyCluster) {
  net::TopologyConfig cfg;
  cfg.num_nodes = 2;
  cfg.nodes_per_rack = 4;
  net::Topology topo(cfg);
  NameNode nn(topo, /*replication=*/3, /*seed=*/1);
  const auto replicas = nn.PlaceReplicas(0);
  // Cluster smaller than replication factor: place what we can, all distinct.
  EXPECT_EQ(replicas.size(), 2u);
  EXPECT_NE(replicas[0], replicas[1]);
}

}  // namespace
}  // namespace asyncmr::dfs
