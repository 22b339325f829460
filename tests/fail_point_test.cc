// util::FailPoint registry semantics: deterministic seeded schedules,
// probability / nth-evaluation / max-fires arming, wildcard arming, spec
// parsing (the FIVM_FAILPOINTS env format), and the disarmed fast path.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/fail_point.h"

namespace fivm::util {
namespace {

/// Evaluates `site` n times, recording which evaluations fired.
std::vector<int> FireProfile(const char* site, int n) {
  std::vector<int> fired;
  for (int i = 0; i < n; ++i) {
    try {
      FIVM_FAIL_POINT(site);
    } catch (const InjectedFault& e) {
      EXPECT_EQ(e.site(), site);
      fired.push_back(i);
    }
  }
  return fired;
}

class FailPointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPointRegistry::Default().DisarmAll(); }
};

TEST_F(FailPointTest, UnarmedSiteNeverFires) {
  EXPECT_FALSE(FailPointsArmed());
  EXPECT_TRUE(FireProfile("test.unarmed", 100).empty());
  // Unarmed evaluations bypass the registry entirely (no stats).
  EXPECT_EQ(FailPointRegistry::Default().Stats("test.unarmed").evaluations,
            0u);
}

TEST_F(FailPointTest, SameSeedSameFireSequence) {
  auto& fp = FailPointRegistry::Default();
  fp.Arm("test.det", 0.3, /*seed=*/42);
  auto first = FireProfile("test.det", 500);
  fp.Arm("test.det", 0.3, /*seed=*/42);  // re-arm resets the stream
  auto second = FireProfile("test.det", 500);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
  // Fire fraction in the right ballpark for p=0.3.
  EXPECT_GT(first.size(), 100u);
  EXPECT_LT(first.size(), 250u);

  fp.Arm("test.det", 0.3, /*seed=*/43);
  auto other_seed = FireProfile("test.det", 500);
  EXPECT_NE(first, other_seed);
}

TEST_F(FailPointTest, SitesDrawIndependentStreams) {
  auto& fp = FailPointRegistry::Default();
  fp.Arm("test.a", 0.5, /*seed=*/7);
  fp.Arm("test.b", 0.5, /*seed=*/7);
  EXPECT_NE(FireProfile("test.a", 200), FireProfile("test.b", 200));
}

TEST_F(FailPointTest, MaxFiresCapsInjection) {
  auto& fp = FailPointRegistry::Default();
  fp.Arm("test.cap", 1.0, /*seed=*/1, /*max_fires=*/3);
  auto fired = FireProfile("test.cap", 50);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(fp.Stats("test.cap").fires, 3u);
  EXPECT_EQ(fp.Stats("test.cap").evaluations, 50u);
}

TEST_F(FailPointTest, ArmNthFiresExactlyOnce) {
  auto& fp = FailPointRegistry::Default();
  fp.ArmNth("test.nth", 5);
  EXPECT_EQ(FireProfile("test.nth", 20), (std::vector<int>{4}));
  EXPECT_EQ(fp.Stats("test.nth").fires, 1u);
}

TEST_F(FailPointTest, DisarmStopsFiring) {
  auto& fp = FailPointRegistry::Default();
  fp.Arm("test.off", 1.0, /*seed=*/1);
  EXPECT_EQ(FireProfile("test.off", 3).size(), 3u);
  fp.Disarm("test.off");
  EXPECT_TRUE(FireProfile("test.off", 3).empty());
}

TEST_F(FailPointTest, WildcardArmsEverySiteIndependently) {
  auto& fp = FailPointRegistry::Default();
  const uint64_t evals0 = fp.TotalEvaluations();
  fp.ArmAll(1.0, /*seed=*/9);
  EXPECT_EQ(FireProfile("test.wild.x", 4).size(), 4u);
  EXPECT_EQ(FireProfile("test.wild.y", 4).size(), 4u);
  EXPECT_EQ(fp.TotalEvaluations() - evals0, 8u);
  fp.DisarmAll();
  EXPECT_TRUE(FireProfile("test.wild.x", 4).empty());
  EXPECT_FALSE(FailPointsArmed());
}

TEST_F(FailPointTest, SpecParsingArmsListedSites) {
  auto& fp = FailPointRegistry::Default();
  EXPECT_TRUE(fp.ConfigureFromSpec("test.s1=1.0, test.s2=0.0", /*seed=*/3));
  EXPECT_EQ(FireProfile("test.s1", 2).size(), 2u);
  EXPECT_TRUE(FireProfile("test.s2", 2).empty());

  EXPECT_TRUE(fp.ConfigureFromSpec("*=1.0", /*seed=*/3));
  EXPECT_EQ(FireProfile("test.s3", 1).size(), 1u);

  EXPECT_FALSE(fp.ConfigureFromSpec("garbage", /*seed=*/3));
  EXPECT_FALSE(fp.ConfigureFromSpec("site=2.5", /*seed=*/3));  // p out of range
  // A malformed entry does not abort well-formed ones before it.
  fp.DisarmAll();
  EXPECT_FALSE(fp.ConfigureFromSpec("test.s4=1.0,oops", /*seed=*/3));
  EXPECT_EQ(FireProfile("test.s4", 1).size(), 1u);
}

TEST_F(FailPointTest, SpecParsingMaxFiresNthAndKillForms) {
  auto& fp = FailPointRegistry::Default();
  // prob/max_fires: fires on the first 2 evaluations only at p=1.
  EXPECT_TRUE(fp.ConfigureFromSpec("test.g1=1.0/2", /*seed=*/3));
  EXPECT_EQ(FireProfile("test.g1", 10).size(), 2u);
  // nth form.
  EXPECT_TRUE(fp.ConfigureFromSpec("test.g2=n3", /*seed=*/3));
  EXPECT_EQ(FireProfile("test.g2", 10), (std::vector<int>{2}));
  // Malformed variants.
  EXPECT_FALSE(fp.ConfigureFromSpec("test.g3=1.0/", /*seed=*/3));
  EXPECT_FALSE(fp.ConfigureFromSpec("test.g4=n", /*seed=*/3));
  EXPECT_FALSE(fp.ConfigureFromSpec("test.g5=nx", /*seed=*/3));
  // Wildcard kill is rejected: a process-wide random _exit is never what a
  // harness wants.
  EXPECT_FALSE(fp.ConfigureFromSpec("*=1.0!kill", /*seed=*/3));
}

TEST_F(FailPointTest, KillActionExitsWithKillCode) {
  // The kill action _exit(kKillExitCode)s the process at the site; run it
  // in a death-test child so the suite survives. Also proves the spec
  // grammar's "!kill" suffix reaches the action.
  auto& fp = FailPointRegistry::Default();
  ASSERT_TRUE(fp.ConfigureFromSpec("test.kill=n2!kill", /*seed=*/1));
  FIVM_FAIL_POINT("test.kill");  // first evaluation: no fire
  EXPECT_EXIT(FIVM_FAIL_POINT("test.kill"),
              ::testing::ExitedWithCode(kKillExitCode), "");
}

TEST_F(FailPointTest, ArmedKillFiresWithoutThrowing) {
  // kKill must not raise InjectedFault on its way out; in the parent the
  // pre-kill evaluations are plain no-ops.
  auto& fp = FailPointRegistry::Default();
  fp.ArmNth("test.kill2", 100, FailAction::kKill);
  EXPECT_NO_THROW(FireProfile("test.kill2", 50));
  EXPECT_EQ(fp.Stats("test.kill2").fires, 0u);
}

TEST_F(FailPointTest, WildcardDoesNotInheritStaleKillAction) {
  // A site once armed to kill and then disarmed keeps its registry entry;
  // a later wildcard arming materializes that entry and must reset it to
  // the wildcard's throw action, not _exit() the process.
  auto& fp = FailPointRegistry::Default();
  fp.Arm("test.stale", 1.0, /*seed=*/5, /*max_fires=*/0, FailAction::kKill);
  fp.DisarmAll();
  fp.ArmAll(1.0, /*seed=*/5);
  EXPECT_THROW(FIVM_FAIL_POINT("test.stale"), InjectedFault);
}

TEST_F(FailPointTest, TotalFiresAccumulatesAcrossSites) {
  auto& fp = FailPointRegistry::Default();
  const uint64_t fires0 = fp.TotalFires();
  fp.Arm("test.t1", 1.0, 1, /*max_fires=*/2);
  fp.Arm("test.t2", 1.0, 1, /*max_fires=*/3);
  FireProfile("test.t1", 10);
  FireProfile("test.t2", 10);
  EXPECT_EQ(fp.TotalFires() - fires0, 5u);
}

}  // namespace
}  // namespace fivm::util
