#include "core/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>

#include "workload/workloads.hpp"

namespace ntcsim::core {
namespace {

Trace sample_trace() {
  Trace t;
  t.push(MicroOp::tx_begin(1));
  t.push(MicroOp::load(0x200000000ULL, true));
  t.push(MicroOp::store(0x200000040ULL, 0xABCD, true));
  t.push(MicroOp::ntstore(0x3C0000000ULL, 7));
  t.push(MicroOp::clwb(0x200000040ULL, FlushKind::kData));
  t.push(MicroOp::sfence());
  t.push(MicroOp::pcommit());
  t.push(MicroOp::tx_end());
  t.push(MicroOp::compute());
  return t;
}

TEST(TraceIo, RoundTripPreservesEveryField) {
  const Trace in = sample_trace();
  std::stringstream ss;
  ASSERT_TRUE(write_trace(ss, in).ok);
  Trace out;
  const auto r = read_trace(ss, out);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(out.size(), in.size());
  ASSERT_EQ(out.ops().size(), in.ops().size());
  for (std::size_t i = 0; i < in.ops().size(); ++i) {
    const MicroOp& o = out.ops()[i];
    const MicroOp& e = in.ops()[i];
    EXPECT_EQ(o.kind, e.kind) << "op " << i;
    EXPECT_EQ(o.flush, e.flush) << "op " << i;
    EXPECT_EQ(o.persistent, e.persistent) << "op " << i;
    EXPECT_EQ(o.addr, e.addr) << "op " << i;
    EXPECT_EQ(o.value, e.value) << "op " << i;
    EXPECT_EQ(o.count, e.count) << "op " << i;
  }
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  std::stringstream ss;
  ASSERT_TRUE(write_trace(ss, Trace{}).ok);
  Trace out;
  ASSERT_TRUE(read_trace(ss, out).ok);
  EXPECT_EQ(out.size(), 0u);
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream ss("definitely not a trace file");
  Trace out;
  const auto r = read_trace(ss, out);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("magic"), std::string::npos);
}

TEST(TraceIo, RejectsTruncation) {
  const Trace in = sample_trace();
  std::stringstream ss;
  ASSERT_TRUE(write_trace(ss, in).ok);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() - 10));
  Trace out;
  const auto r = read_trace(cut, out);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("truncated"), std::string::npos);
}

TEST(TraceIo, RejectsCorruptKind) {
  const Trace in = sample_trace();
  std::stringstream ss;
  ASSERT_TRUE(write_trace(ss, in).ok);
  std::string bytes = ss.str();
  bytes[16] = 0x7F;  // first record's kind
  std::stringstream bad(bytes);
  Trace out;
  const auto r = read_trace(bad, out);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("corrupt"), std::string::npos);
}

TEST(TraceIo, HugeHeaderCountIsAnErrorNotAnAllocation) {
  // A header claiming 2^62 ops over a one-op body must fail as truncated;
  // reserving the claimed count would abort (or allocate exabytes).
  Trace one;
  one.push(MicroOp::compute());
  std::stringstream ss;
  ASSERT_TRUE(write_trace(ss, one).ok);
  std::string bytes = ss.str();
  const std::uint64_t huge = std::uint64_t{1} << 62;
  bytes.replace(8, sizeof huge, reinterpret_cast<const char*>(&huge),
                sizeof huge);
  std::stringstream bad(bytes);
  Trace out;
  const auto r = read_trace(bad, out);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("truncated"), std::string::npos) << r.error;
}

TEST(TraceIo, RejectsCorruptFlushKind) {
  const Trace in = sample_trace();
  std::stringstream ss;
  ASSERT_TRUE(write_trace(ss, in).ok);
  std::string bytes = ss.str();
  bytes[16 + 1] = 9;  // first record's flush byte
  std::stringstream bad(bytes);
  Trace out;
  const auto r = read_trace(bad, out);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("corrupt flush"), std::string::npos) << r.error;
}

TEST(TraceIo, WorkloadTraceRoundTripsExactly) {
  AddressSpace space;
  workload::SimHeap heap(space, 1);
  workload::WorkloadParams p = workload::default_params(WorkloadKind::kBtree);
  p.setup_elems = 200;
  p.ops = 50;
  const Trace in = workload::generate(p, 0, heap, nullptr);
  std::stringstream ss;
  ASSERT_TRUE(write_trace(ss, in).ok);
  Trace out;
  ASSERT_TRUE(read_trace(ss, out).ok);
  ASSERT_EQ(out.size(), in.size());
  EXPECT_EQ(out.transactions(), in.transactions());
  ASSERT_EQ(out.ops().size(), in.ops().size());
  for (std::size_t i = 0; i < in.ops().size(); i += 97) {  // spot-check
    EXPECT_EQ(out.ops()[i].addr, in.ops()[i].addr);
    EXPECT_EQ(out.ops()[i].value, in.ops()[i].value);
    EXPECT_EQ(out.ops()[i].count, in.ops()[i].count);
  }
}

// The on-disk format stays v1, one 24-byte record per µop: a compute run
// is written out op by op. Size and FNV-1a checksum of this file were
// recorded when traces held one record per µop.
TEST(TraceIo, SavedBtreeTraceKeepsItsBytes) {
  AddressSpace space;
  workload::SimHeap heap(space, 1);
  workload::WorkloadParams p = workload::default_params(WorkloadKind::kBtree);
  p.setup_elems = 200;
  p.ops = 50;
  const Trace in = workload::generate(p, 0, heap, nullptr);
  EXPECT_EQ(in.size(), 26213u);
  EXPECT_LT(in.ops().size(), in.size());
  const std::string path = ::testing::TempDir() + "/ntcsim_btree_trace.bin";
  ASSERT_TRUE(save_trace(path, in).ok);
  std::ifstream f(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(f),
                          std::istreambuf_iterator<char>()};
  EXPECT_EQ(bytes.size(), 16u + 24u * 26213u);
  std::uint64_t fnv = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    fnv = (fnv ^ c) * 0x100000001b3ULL;
  }
  EXPECT_EQ(fnv, 0xc229a41995de95e3ULL);
}

TEST(TraceIo, FileRoundTrip) {
  const Trace in = sample_trace();
  const std::string path = ::testing::TempDir() + "/ntcsim_trace_test.bin";
  ASSERT_TRUE(save_trace(path, in).ok);
  Trace out;
  const auto r = load_trace(path, out);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(out.size(), in.size());
  EXPECT_FALSE(load_trace(path + ".missing", out).ok);
}

}  // namespace
}  // namespace ntcsim::core
