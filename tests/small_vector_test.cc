#include "src/util/small_vector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace fivm::util {
namespace {

TEST(SmallVectorTest, StartsEmpty) {
  SmallVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 4u);
}

TEST(SmallVectorTest, PushWithinInlineCapacity) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVectorTest, SpillsToHeap) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_GE(v.capacity(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVectorTest, InitializerList) {
  SmallVector<int, 2> v{1, 2, 3, 4, 5};
  EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(v[4], 5);
}

TEST(SmallVectorTest, CopyConstruct) {
  SmallVector<std::string, 2> v{"a", "b", "c"};
  SmallVector<std::string, 2> w = v;
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w[2], "c");
  v[2] = "z";
  EXPECT_EQ(w[2], "c");
}

TEST(SmallVectorTest, MoveConstructInline) {
  SmallVector<std::unique_ptr<int>, 4> v;
  v.push_back(std::make_unique<int>(42));
  SmallVector<std::unique_ptr<int>, 4> w = std::move(v);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(*w[0], 42);
  EXPECT_EQ(v.size(), 0u);
}

TEST(SmallVectorTest, MoveConstructHeap) {
  SmallVector<std::unique_ptr<int>, 2> v;
  for (int i = 0; i < 10; ++i) v.push_back(std::make_unique<int>(i));
  SmallVector<std::unique_ptr<int>, 2> w = std::move(v);
  ASSERT_EQ(w.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(*w[i], i);
}

TEST(SmallVectorTest, CopyAssign) {
  SmallVector<int, 2> v{1, 2, 3};
  SmallVector<int, 2> w{9};
  w = v;
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0], 1);
}

TEST(SmallVectorTest, MoveAssign) {
  SmallVector<int, 2> v{1, 2, 3, 4, 5, 6, 7, 8};
  SmallVector<int, 2> w{9};
  w = std::move(v);
  EXPECT_EQ(w.size(), 8u);
  EXPECT_EQ(w[7], 8);
}

TEST(SmallVectorTest, PopBack) {
  SmallVector<int, 4> v{1, 2, 3};
  v.pop_back();
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.back(), 2);
}

TEST(SmallVectorTest, Resize) {
  SmallVector<int, 4> v;
  v.resize(10);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v[9], 0);
  v.resize(2);
  EXPECT_EQ(v.size(), 2u);
}

TEST(SmallVectorTest, Erase) {
  SmallVector<int, 4> v{1, 2, 3, 4};
  v.erase(v.begin() + 1);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 3);
  EXPECT_EQ(v[2], 4);
}

TEST(SmallVectorTest, Equality) {
  SmallVector<int, 2> a{1, 2, 3};
  SmallVector<int, 2> b{1, 2, 3};
  SmallVector<int, 2> c{1, 2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(SmallVectorTest, LexicographicCompare) {
  SmallVector<int, 2> a{1, 2};
  SmallVector<int, 2> b{1, 3};
  SmallVector<int, 2> c{1, 2, 0};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(a < c);
  EXPECT_FALSE(b < a);
}

TEST(SmallVectorTest, Clear) {
  SmallVector<std::string, 2> v{"x", "y", "z"};
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back("w");
  EXPECT_EQ(v[0], "w");
}

TEST(SmallVectorTest, RangeConstructor) {
  std::vector<int> src{5, 6, 7};
  SmallVector<int, 2> v(src.begin(), src.end());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], 7);
}

TEST(SmallVectorTest, NonTrivialDestructorsRun) {
  auto counter = std::make_shared<int>(0);
  struct Probe {
    std::shared_ptr<int> c;
    explicit Probe(std::shared_ptr<int> p) : c(std::move(p)) {}
    Probe(Probe&& o) noexcept = default;
    Probe& operator=(Probe&& o) noexcept = default;
    ~Probe() {
      if (c) ++*c;
    }
  };
  {
    SmallVector<Probe, 2> v;
    for (int i = 0; i < 5; ++i) v.push_back(Probe{counter});
  }
  // Only the 5 live elements count: moved-from temporaries and relocation
  // sources carry a null pointer.
  EXPECT_EQ(*counter, 5);
}

// The header beside the inline storage is two 32-bit counts: the heap
// pointer shares the storage's bytes.
static_assert(sizeof(SmallVector<uint64_t, 3>) == 3 * sizeof(uint64_t) + 8);
static_assert(sizeof(SmallVector<uint32_t, 6>) == 6 * sizeof(uint32_t) + 8);

TEST(SmallVectorTest, GrowthPastInlineCapacitySpillsAndKeepsValues) {
  SmallVector<int64_t, 3> v{10, 11, 12};
  EXPECT_EQ(v.capacity(), 3u);
  const int64_t* inline_data = v.data();
  v.push_back(13);
  EXPECT_GT(v.capacity(), 3u);
  EXPECT_NE(v.data(), inline_data);
  ASSERT_EQ(v.size(), 4u);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(v[i], 10 + i);

  SmallVector<std::string, 3> s{"a", "b", "c"};
  s.push_back("d");
  EXPECT_GT(s.capacity(), 3u);
  EXPECT_EQ(s, (SmallVector<std::string, 3>{"a", "b", "c", "d"}));
}

TEST(SmallVectorTest, CopyLeavesInlineAndHeapSourcesIntact) {
  for (int n : {2, 7}) {  // inline source, heap source
    SmallVector<int64_t, 3> src;
    for (int i = 0; i < n; ++i) src.push_back(i);
    SmallVector<int64_t, 3> copy(src);
    SmallVector<int64_t, 3> assigned{99, 98, 97, 96};
    assigned = src;
    EXPECT_EQ(copy, src);
    EXPECT_EQ(assigned, src);
    EXPECT_NE(copy.data(), src.data());
    ASSERT_EQ(src.size(), static_cast<size_t>(n));
    src.push_back(42);
    EXPECT_EQ(copy.size(), static_cast<size_t>(n));
  }
}

TEST(SmallVectorTest, MoveLeavesInlineAndHeapSourcesEmptyAndReusable) {
  for (int n : {2, 7}) {  // inline source, heap source
    SmallVector<int64_t, 3> src;
    for (int i = 0; i < n; ++i) src.push_back(i);
    SmallVector<int64_t, 3> moved(std::move(src));
    ASSERT_EQ(moved.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) EXPECT_EQ(moved[i], i);
    EXPECT_TRUE(src.empty());
    EXPECT_EQ(src.capacity(), 3u);  // back to its inline storage
    for (int i = 0; i < 5; ++i) src.push_back(100 + i);
    EXPECT_EQ(src, (SmallVector<int64_t, 3>{100, 101, 102, 103, 104}));

    SmallVector<int64_t, 3> assigned{99, 98, 97, 96};  // heap target
    assigned = std::move(moved);
    ASSERT_EQ(assigned.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) EXPECT_EQ(assigned[i], i);
    EXPECT_TRUE(moved.empty());
    EXPECT_EQ(moved.capacity(), 3u);
    moved.push_back(7);
    EXPECT_EQ(moved, (SmallVector<int64_t, 3>{7}));
  }
}

TEST(SmallVectorTest, SelfAssignmentKeepsContents) {
  for (int n : {2, 7}) {  // inline, heap
    SmallVector<std::string, 3> v;
    for (int i = 0; i < n; ++i) v.push_back(std::to_string(i));
    const SmallVector<std::string, 3> expected = v;
    SmallVector<std::string, 3>& alias = v;
    v = alias;
    EXPECT_EQ(v, expected);
    v = std::move(alias);
    EXPECT_EQ(v, expected);
  }
}

TEST(SmallVectorTest, StringElementsSurviveSpillCopyAndMove) {
  SmallVector<std::string, 3> v;
  for (int i = 0; i < 3; ++i) v.push_back(std::string(40, 'a' + i));
  SmallVector<std::string, 3> inline_moved(std::move(v));
  EXPECT_TRUE(v.empty());
  inline_moved.push_back(std::string(40, 'd'));  // spills
  SmallVector<std::string, 3> copy = inline_moved;
  SmallVector<std::string, 3> heap_moved(std::move(inline_moved));
  ASSERT_EQ(heap_moved.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(heap_moved[i], std::string(40, 'a' + i));
    EXPECT_EQ(copy[i], heap_moved[i]);
  }
  EXPECT_TRUE(inline_moved.empty());
  v.push_back("reused");
  EXPECT_EQ(v[0], "reused");
}

TEST(SmallVectorTest, UniquePtrElementsSurviveSpillAndMoveAssign) {
  SmallVector<std::unique_ptr<int>, 3> v;
  for (int i = 0; i < 3; ++i) v.push_back(std::make_unique<int>(i));
  SmallVector<std::unique_ptr<int>, 3> w;
  w = std::move(v);  // inline source
  w.push_back(std::make_unique<int>(3));  // spills
  SmallVector<std::unique_ptr<int>, 3> x;
  x.push_back(std::make_unique<int>(-1));
  x = std::move(w);  // heap source; x's old element is destroyed
  ASSERT_EQ(x.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(*x[i], i);
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(w.empty());
  w.push_back(std::make_unique<int>(5));
  EXPECT_EQ(*w[0], 5);
}

// Appending one of the vector's own elements when it is full: growth frees
// a heap buffer and overwrites inline storage with the heap pointer, so the
// element must be copied before the vector grows.
TEST(SmallVectorTest, AppendingOwnElementWhileFullCopiesItFirst) {
  SmallVector<int64_t, 3> v{1, 2, 3};  // full, inline
  v.push_back(v[0]);
  EXPECT_EQ(v, (SmallVector<int64_t, 3>{1, 2, 3, 1}));
  while (v.size() < v.capacity()) v.push_back(v.back() + 1);  // full, heap
  const int64_t first = v[0];
  const size_t n = v.size();
  v.push_back(v[0]);
  ASSERT_EQ(v.size(), n + 1);
  EXPECT_EQ(v.back(), first);

  SmallVector<std::string, 3> s{std::string(40, 'a'), "b", "c"};
  s.push_back(s[0]);
  EXPECT_EQ(s[3], std::string(40, 'a'));
}

// The 32-bit counts cap the capacity; the check runs before any allocation.
TEST(SmallVectorTest, ReserveBeyond32BitCapacityThrows) {
  SmallVector<uint8_t, 8> v{1, 2};
  EXPECT_THROW(v.reserve(size_t{1} << 32), std::length_error);
  EXPECT_EQ(v, (SmallVector<uint8_t, 8>{1, 2}));
}

}  // namespace
}  // namespace fivm::util
