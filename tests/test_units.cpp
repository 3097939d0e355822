// Unit tests for the small substrates: network profiles & topology,
// datatypes (pack/unpack/reduce), the report table printer, and the Casper
// epochs_used hint parser.
#include <gtest/gtest.h>

#include <sstream>

#include "core/casper.hpp"
#include "core/layer_impl.hpp"
#include "mpi/datatype.hpp"
#include "net/profile.hpp"
#include "net/topology.hpp"
#include "report/table.hpp"

namespace {

using namespace casper;

// ------------------------------------------------------------- topology --

TEST(Topology, RankPlacement) {
  net::Topology t;
  t.nodes = 3;
  t.cores_per_node = 4;
  EXPECT_EQ(t.nranks(), 12);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(7), 1);
  EXPECT_EQ(t.core_of(7), 3);
  EXPECT_TRUE(t.same_node(4, 7));
  EXPECT_FALSE(t.same_node(3, 4));
}

TEST(Topology, NumaMapping) {
  net::Topology t;
  t.nodes = 1;
  t.cores_per_node = 8;
  t.numa_per_node = 2;
  EXPECT_EQ(t.numa_of(0), 0);
  EXPECT_EQ(t.numa_of(3), 0);
  EXPECT_EQ(t.numa_of(4), 1);
  EXPECT_EQ(t.numa_of(7), 1);
}

TEST(Profile, LatencyModel) {
  auto p = net::cray_xc30_regular();
  EXPECT_GT(p.latency(false, 0), p.latency(true, 0));  // net > shm base
  EXPECT_GT(p.latency(false, 4096), p.latency(false, 8));
  EXPECT_GT(p.handling(4096), p.handling(8));
}

TEST(Profile, HardwareCapabilityMatrix) {
  EXPECT_FALSE(net::cray_xc30_regular().hw_contig_put);
  EXPECT_TRUE(net::cray_xc30_dmapp().hw_contig_put);
  EXPECT_TRUE(net::cray_xc30_dmapp().hw_lock);
  EXPECT_TRUE(net::fusion_mvapich().hw_contig_put);
}

TEST(Profile, BusyFactorScalesWithCores) {
  auto p = net::cray_xc30_regular();
  EXPECT_DOUBLE_EQ(p.busy_factor(1), 1.0);
  EXPECT_GT(p.busy_factor(16), p.busy_factor(8));
}

// ------------------------------------------------------------ datatypes --

TEST(Datatype, SizesAndSpans) {
  using namespace mpi;
  EXPECT_EQ(dt_size(Dt::Byte), 1u);
  EXPECT_EQ(dt_size(Dt::Int), 4u);
  EXPECT_EQ(dt_size(Dt::Double), 8u);
  auto c = contig(Dt::Double);
  EXPECT_TRUE(c.contiguous());
  EXPECT_EQ(data_bytes(4, c), 32u);
  EXPECT_EQ(span_bytes(4, c), 32u);
  auto v = vector_of(Dt::Double, 2, 5);
  EXPECT_FALSE(v.contiguous());
  EXPECT_EQ(data_bytes(3, v), 48u);           // 3 blocks x 2 elems x 8
  EXPECT_EQ(span_bytes(3, v), (2 * 5 + 2) * 8u);  // 2 strides + last block
  EXPECT_EQ(span_bytes(0, v), 0u);
}

TEST(Datatype, PackUnpackRoundTripContig) {
  std::vector<double> src = {1, 2, 3, 4};
  auto packed = mpi::pack(src.data(), 4, mpi::contig(mpi::Dt::Double));
  std::vector<double> dst(4, 0);
  mpi::unpack(dst.data(), 4, mpi::contig(mpi::Dt::Double), packed);
  EXPECT_EQ(src, dst);
}

class DatatypeRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DatatypeRoundTrip, PackUnpackStrided) {
  auto [count, blocklen, stride] = GetParam();
  const auto dt = mpi::vector_of(mpi::Dt::Double, blocklen, stride);
  std::vector<double> buf(
      static_cast<std::size_t>(mpi::span_bytes(count, dt) / 8 + 4), -1.0);
  // fill the strided positions with recognizable values
  for (int b = 0; b < count; ++b) {
    for (int e = 0; e < blocklen; ++e) {
      buf[static_cast<std::size_t>(b * stride + e)] = b * 100.0 + e;
    }
  }
  auto packed = mpi::pack(buf.data(), count, dt);
  EXPECT_EQ(packed.size(), mpi::data_bytes(count, dt));

  std::vector<double> out(buf.size(), -1.0);
  mpi::unpack(out.data(), count, dt, packed);
  for (int b = 0; b < count; ++b) {
    for (int e = 0; e < blocklen; ++e) {
      EXPECT_EQ(out[static_cast<std::size_t>(b * stride + e)],
                b * 100.0 + e);
    }
  }
  // gaps untouched
  if (stride > blocklen && count > 1) {
    EXPECT_EQ(out[static_cast<std::size_t>(blocklen)], -1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DatatypeRoundTrip,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(4, 1, 2),
                      std::make_tuple(3, 2, 5), std::make_tuple(8, 3, 3),
                      std::make_tuple(2, 7, 11)));

TEST(Datatype, ReduceOps) {
  std::vector<double> dst = {1, 5, 3};
  std::vector<double> src = {4, 2, 3};
  mpi::reduce_contig(dst.data(), src.data(), 3, mpi::Dt::Double,
                     mpi::AccOp::Sum);
  EXPECT_EQ(dst, (std::vector<double>{5, 7, 6}));
  mpi::reduce_contig(dst.data(), src.data(), 3, mpi::Dt::Double,
                     mpi::AccOp::Min);
  EXPECT_EQ(dst, (std::vector<double>{4, 2, 3}));
  mpi::reduce_contig(dst.data(), src.data(), 3, mpi::Dt::Double,
                     mpi::AccOp::Max);
  EXPECT_EQ(dst, (std::vector<double>{4, 2, 3}));
  std::vector<double> rep = {9, 9, 9};
  mpi::reduce_contig(dst.data(), rep.data(), 3, mpi::Dt::Double,
                     mpi::AccOp::Replace);
  EXPECT_EQ(dst, (std::vector<double>{9, 9, 9}));
  mpi::reduce_contig(dst.data(), src.data(), 3, mpi::Dt::Double,
                     mpi::AccOp::NoOp);
  EXPECT_EQ(dst, (std::vector<double>{9, 9, 9}));
}

TEST(Datatype, ReduceIntoStrided) {
  std::vector<double> dst(10, 1.0);
  std::vector<double> payload = {10, 20, 30};
  auto dt = mpi::vector_of(mpi::Dt::Double, 1, 3);
  mpi::reduce_into(dst.data(), 3, dt,
                   std::span<const std::byte>(
                       reinterpret_cast<const std::byte*>(payload.data()),
                       24),
                   mpi::AccOp::Sum);
  EXPECT_EQ(dst[0], 11.0);
  EXPECT_EQ(dst[3], 21.0);
  EXPECT_EQ(dst[6], 31.0);
  EXPECT_EQ(dst[1], 1.0);
}

// --------------------------------------------------------------- report --

TEST(Report, AlignedTable) {
  report::Table t({"a", "longer"});
  t.row({"x", "1"});
  t.row({"yy", "22"});
  std::ostringstream os;
  t.print(os, false);
  const std::string s = os.str();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("yy"), std::string::npos);
}

TEST(Report, CsvMode) {
  report::Table t({"a", "b"});
  t.row({"1", "2"});
  std::ostringstream os;
  t.print(os, true);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Report, Fmt) {
  EXPECT_EQ(report::fmt(1.2345, 2), "1.23");
  EXPECT_EQ(report::fmt(1.0, 0), "1");
  EXPECT_EQ(report::fmt_count(42), "42");
}

// ------------------------------------------------------------ epoch hint --

TEST(EpochsUsed, ParseVariants) {
  using namespace casper::core;
  mpi::Info none;
  EXPECT_EQ(parse_epochs(none), kEpochAll);

  mpi::Info lock;
  lock.set(kEpochsUsedKey, "lock");
  EXPECT_EQ(parse_epochs(lock), kEpochLock);

  mpi::Info multi;
  multi.set(kEpochsUsedKey, "fence,lockall");
  EXPECT_EQ(parse_epochs(multi),
            static_cast<unsigned>(kEpochFence | kEpochLockAll));

  mpi::Info all;
  all.set(kEpochsUsedKey, "fence,pscw,lock,lockall");
  EXPECT_EQ(parse_epochs(all), kEpochAll);
}

TEST(GhostPlacement, CountMatchesConfig) {
  net::Topology t;
  t.nodes = 4;
  t.cores_per_node = 6;
  t.numa_per_node = 2;
  for (int g = 1; g <= 3; ++g) {
    core::Config cc;
    cc.ghosts_per_node = g;
    int total = 0;
    for (int r = 0; r < t.nranks(); ++r) {
      if (core::is_ghost_rank(t, cc, r)) ++total;
    }
    EXPECT_EQ(total, 4 * g) << "g=" << g;
    EXPECT_EQ(core::user_ranks(t, cc), 4 * (6 - g));
  }
}

TEST(GhostPlacement, NonTopologyAwareUsesLastCores) {
  net::Topology t;
  t.nodes = 1;
  t.cores_per_node = 8;
  core::Config cc;
  cc.ghosts_per_node = 2;
  cc.topology_aware = false;
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(core::is_ghost_rank(t, cc, r), r >= 6) << "rank " << r;
  }
}

}  // namespace
