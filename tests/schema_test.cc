#include "src/data/schema.h"

#include <gtest/gtest.h>

#include "src/data/catalog.h"

namespace fivm {
namespace {

TEST(SchemaTest, AddKeepsOrderAndDedups) {
  Schema s;
  EXPECT_TRUE(s.Add(3));
  EXPECT_TRUE(s.Add(1));
  EXPECT_FALSE(s.Add(3));
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], 3u);
  EXPECT_EQ(s[1], 1u);
}

TEST(SchemaTest, PositionOf) {
  Schema s{5, 7, 9};
  EXPECT_EQ(s.PositionOf(7), 1);
  EXPECT_EQ(s.PositionOf(4), -1);
}

TEST(SchemaTest, SetOperations) {
  Schema a{1, 2, 3};
  Schema b{3, 4, 2};
  EXPECT_EQ(a.Intersect(b), (Schema{2, 3}));
  EXPECT_EQ(a.Minus(b), (Schema{1}));
  EXPECT_EQ(a.Union(b), (Schema{1, 2, 3, 4}));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(Schema{9}));
}

TEST(SchemaTest, ContainsAll) {
  Schema a{1, 2, 3};
  EXPECT_TRUE(a.ContainsAll(Schema{3, 1}));
  EXPECT_FALSE(a.ContainsAll(Schema{1, 4}));
  EXPECT_TRUE(a.ContainsAll(Schema{}));
}

TEST(SchemaTest, SameSetIgnoresOrder) {
  EXPECT_TRUE((Schema{1, 2}).SameSet(Schema{2, 1}));
  EXPECT_FALSE((Schema{1, 2}).SameSet(Schema{1, 3}));
  EXPECT_FALSE((Schema{1, 2}).SameSet(Schema{1}));
}

TEST(SchemaTest, PositionsOf) {
  Schema a{10, 20, 30};
  auto pos = a.PositionsOf(Schema{30, 10});
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_EQ(pos[0], 2u);
  EXPECT_EQ(pos[1], 0u);
}

TEST(SchemaTest, EmptySchema) {
  Schema s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.Intersect(Schema{1}), Schema{});
  EXPECT_EQ((Schema{1}).Minus(Schema{}), Schema{1});
}

TEST(CatalogTest, InternIsIdempotent) {
  Catalog c;
  VarId a = c.Intern("A");
  VarId b = c.Intern("B");
  EXPECT_NE(a, b);
  EXPECT_EQ(c.Intern("A"), a);
  EXPECT_EQ(c.size(), 2u);
}

TEST(CatalogTest, LookupMissing) {
  Catalog c;
  EXPECT_EQ(c.Lookup("nope"), kInvalidVar);
  c.Intern("yes");
  EXPECT_NE(c.Lookup("yes"), kInvalidVar);
}

TEST(CatalogTest, NameOfRoundTrips) {
  Catalog c;
  VarId a = c.Intern("postcode");
  EXPECT_EQ(c.NameOf(a), "postcode");
}

}  // namespace
}  // namespace fivm
