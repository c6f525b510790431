// LineMap, the flat line-address map behind the functional images and the
// NVM wear counts: lookups and overwrites must survive rehashes, copies are
// deep, and a moved-from or cleared map is empty and usable.
#include "common/line_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>

namespace ntcsim {
namespace {

/// Lines from three regions far apart, one dense and two strided, so the
/// keys share no low address bits pattern the hash could lean on.
Addr nth_line(unsigned i) {
  switch (i % 3) {
    case 0: return 0x200000000ULL + Addr{i} * kLineBytes;
    case 1: return 0x3C0000000ULL + Addr{i} * 4096;
    default: return 0x1000ULL + Addr{i} * (Addr{1} << 20);
  }
}

TEST(LineMap, ValueInitializedOnFirstUse) {
  LineMap<std::uint32_t> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(0x40), nullptr);
  EXPECT_EQ(m[0x40], 0u);
  ++m[0x40];
  ++m[0x40];
  EXPECT_EQ(m.size(), 1u);
  ASSERT_NE(m.find(0x40), nullptr);
  EXPECT_EQ(*m.find(0x40), 2u);
}

TEST(LineMap, InsertOverwriteAndFindAcrossRehashes) {
  // The table starts at 16 slots and doubles past 3/4 full: 3000 keys
  // need 4096 slots, eight rehashes. Overwrites hit keys inserted before
  // several of them.
  LineMap<std::uint64_t> m;
  std::map<Addr, std::uint64_t> ref;
  for (unsigned i = 0; i < 3000; ++i) {
    m[nth_line(i)] = i;
    ref[nth_line(i)] = i;
    if (i % 7 == 0) {
      m[nth_line(i / 2)] += 1000000;
      ref[nth_line(i / 2)] += 1000000;
    }
    // Lookups between inserts see the latest table.
    ASSERT_NE(m.find(nth_line(i / 3)), nullptr) << i;
    ASSERT_EQ(*m.find(nth_line(i / 3)), ref[nth_line(i / 3)]) << i;
  }
  ASSERT_EQ(m.size(), ref.size());
  for (const auto& [line, v] : ref) {
    const std::uint64_t* got = m.find(line);
    ASSERT_NE(got, nullptr) << std::hex << line;
    EXPECT_EQ(*got, v) << std::hex << line;
  }
  EXPECT_EQ(m.find(0x200000000ULL + 3001 * kLineBytes), nullptr);
  EXPECT_EQ(m.find(0), nullptr);

  std::map<Addr, std::uint64_t> seen;
  m.for_each([&seen](Addr line, std::uint64_t v) {
    EXPECT_TRUE(seen.emplace(line, v).second) << "visited twice";
  });
  EXPECT_EQ(seen, ref);
}

TEST(LineMap, CopiesAreDeepAndIndependent) {
  LineMap<int> a;
  for (unsigned i = 0; i < 100; ++i) a[nth_line(i)] = static_cast<int>(i);

  LineMap<int> b = a;
  b[nth_line(0)] = -1;
  b[nth_line(500)] = 5;
  EXPECT_EQ(*a.find(nth_line(0)), 0);
  EXPECT_EQ(a.find(nth_line(500)), nullptr);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(b.size(), 101u);

  LineMap<int> c;
  c[nth_line(900)] = 9;
  c = a;
  EXPECT_EQ(c.size(), 100u);
  EXPECT_EQ(c.find(nth_line(900)), nullptr);
  EXPECT_EQ(*c.find(nth_line(42)), 42);
}

TEST(LineMap, MovedFromAndClearedMapsAreEmptyAndUsable) {
  LineMap<int> a;
  for (unsigned i = 0; i < 100; ++i) a[nth_line(i)] = static_cast<int>(i);

  LineMap<int> b(std::move(a));
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(*b.find(nth_line(99)), 99);
  // The moved-from map is documented to be empty and usable.
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.find(nth_line(3)), nullptr);
  a[nth_line(3)] = 7;
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(*a.find(nth_line(3)), 7);

  LineMap<int> c;
  c[nth_line(1)] = 1;
  c = std::move(b);
  EXPECT_EQ(c.size(), 100u);
  EXPECT_EQ(*c.find(nth_line(1)), 1);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  b[nth_line(2)] = 2;
  EXPECT_EQ(*b.find(nth_line(2)), 2);

  c.clear();
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.find(nth_line(1)), nullptr);
  int visits = 0;
  c.for_each([&visits](Addr, int) { ++visits; });
  EXPECT_EQ(visits, 0);
  for (unsigned i = 0; i < 200; ++i) c[nth_line(i)] = -static_cast<int>(i);
  EXPECT_EQ(c.size(), 200u);
  EXPECT_EQ(*c.find(nth_line(199)), -199);
}

}  // namespace
}  // namespace ntcsim
