// Cross-validation of the two SAP oracles: the profile DP must agree with
// the obviously-correct brute force on every random tiny instance.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "src/core/sap_solver.hpp"
#include "src/exact/brute_force.hpp"
#include "src/exact/profile_dp.hpp"
#include "src/exact/ufpp_profile_dp.hpp"
#include "src/gen/generators.hpp"
#include "src/model/verify.hpp"
#include "src/ufpp/branch_and_bound.hpp"
#include "src/util/telemetry.hpp"
#include "tests/e6_instances.hpp"

namespace sap {
namespace {

TEST(BruteForceTest, SingleTask) {
  const PathInstance inst({4}, {Task{0, 0, 2, 7}});
  const SapSolution sol = sap_brute_force(inst);
  EXPECT_EQ(sol.weight(inst), 7);
  EXPECT_TRUE(verify_sap(inst, sol));
}

TEST(BruteForceTest, PrefersHeavierConflictingTask) {
  // Two tasks that cannot coexist (each needs the full capacity).
  const PathInstance inst({4, 4}, {Task{0, 1, 4, 3}, Task{0, 1, 4, 9}});
  const SapSolution sol = sap_brute_force(inst);
  ASSERT_EQ(sol.size(), 1u);
  EXPECT_EQ(sol.placements[0].task, 1);
}

TEST(BruteForceTest, GuardsAgainstHugeInputs) {
  const PathInstance tall({1000}, {Task{0, 0, 1, 1}});
  EXPECT_THROW(sap_brute_force(tall), std::invalid_argument);
}

TEST(ProfileDpTest, EmptyInstance) {
  const PathInstance inst({4, 4}, {});
  const SapExactResult r = sap_exact_profile_dp(inst);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.weight, 0);
  EXPECT_TRUE(r.solution.empty());
}

TEST(ProfileDpTest, StacksCompatibleTasks) {
  const PathInstance inst({4, 4}, {Task{0, 1, 2, 5}, Task{0, 1, 2, 5}});
  const SapExactResult r = sap_exact_profile_dp(inst);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.weight, 10);
  EXPECT_TRUE(verify_sap(inst, r.solution));
}

TEST(ProfileDpTest, RespectsDownstreamCapacityDrops) {
  // Task 0 spans a high-capacity prefix but its bottleneck is the final
  // low edge; placed high it would violate there.
  const PathInstance inst({8, 2}, {Task{0, 1, 2, 5}, Task{0, 0, 6, 4}});
  const SapExactResult r = sap_exact_profile_dp(inst);
  EXPECT_TRUE(r.proven_optimal);
  // Task 0 at height 0 (pinned by edge 1), task 1 at height 2.
  EXPECT_EQ(r.weight, 9);
  EXPECT_TRUE(verify_sap(inst, r.solution));
}

TEST(ProfileDpTest, SupportsHeightFloor) {
  const PathInstance inst({6}, {Task{0, 0, 3, 5}, Task{0, 0, 3, 4}});
  SapExactOptions opt;
  opt.min_height = 2;
  const SapExactResult r = sap_exact_profile_dp(inst, opt);
  // Only one task fits in [2, 6).
  EXPECT_EQ(r.weight, 5);
  for (const Placement& p : r.solution.placements) {
    EXPECT_GE(p.height, 2);
  }
  // A floor above every capacity leaves nothing to place (and must not
  // overflow the height arithmetic).
  opt.min_height = std::numeric_limits<Value>::max();
  EXPECT_EQ(sap_exact_profile_dp(inst, opt).weight, 0);
}

TEST(ProfileDpTest, MatchesBruteForceOnRandomTinyInstances) {
  Rng rng(101);
  for (int trial = 0; trial < 60; ++trial) {
    PathGenOptions opt;
    opt.num_edges = static_cast<std::size_t>(rng.uniform_int(2, 6));
    opt.num_tasks = static_cast<std::size_t>(rng.uniform_int(2, 8));
    opt.profile = static_cast<CapacityProfile>(rng.uniform_int(0, 4));
    opt.min_capacity = 2;
    opt.max_capacity = 8;
    const PathInstance inst = generate_path_instance(opt, rng);
    const SapSolution brute = sap_brute_force(inst);
    const SapExactResult dp = sap_exact_profile_dp(inst);
    ASSERT_TRUE(dp.proven_optimal) << "trial " << trial;
    ASSERT_TRUE(verify_sap(inst, dp.solution))
        << verify_sap(inst, dp.solution).reason;
    EXPECT_EQ(dp.weight, brute.weight(inst)) << "trial " << trial;
    EXPECT_EQ(dp.solution.weight(inst), dp.weight);
  }
}

TEST(ProfileDpTest, GroundedHeuristicIsFeasibleLowerBound) {
  Rng rng(103);
  for (int trial = 0; trial < 20; ++trial) {
    PathGenOptions opt;
    opt.num_edges = 6;
    opt.num_tasks = 8;
    opt.min_capacity = 4;
    opt.max_capacity = 10;
    const PathInstance inst = generate_path_instance(opt, rng);
    SapExactOptions heuristic;
    heuristic.grounded_only = true;
    const SapExactResult h = sap_exact_profile_dp(inst, heuristic);
    EXPECT_FALSE(h.proven_optimal);
    EXPECT_TRUE(verify_sap(inst, h.solution));
    const SapExactResult exact = sap_exact_profile_dp(inst);
    EXPECT_LE(h.weight, exact.weight);
    // On these tiny instances the heuristic is usually optimal too; it must
    // at least find a non-trivial solution whenever one exists.
    if (exact.weight > 0) {
      EXPECT_GT(h.weight, 0);
    }
  }
}

TEST(ProfileDpTest, BeamCapTruncatesButStaysFeasible) {
  Rng rng(107);
  PathGenOptions opt;
  opt.num_edges = 5;
  opt.num_tasks = 10;
  opt.min_capacity = 6;
  opt.max_capacity = 12;
  const PathInstance inst = generate_path_instance(opt, rng);
  SapExactOptions tight;
  tight.max_states = 4;
  const SapExactResult r = sap_exact_profile_dp(inst, tight);
  EXPECT_TRUE(verify_sap(inst, r.solution));
  const SapExactResult full = sap_exact_profile_dp(inst);
  EXPECT_LE(r.weight, full.weight);
}

TEST(ProfileDpTest, BeamRanksOnlySurvivableStates) {
  // The beam must rank only states that can reach the end of the path. If
  // placements may rise above the task's bottleneck, the heaviest states on
  // these instances are ones a later, lower edge kills, and the beam
  // returns weight 0.
  struct BeamCase {
    CapacityProfile profile;
    std::size_t n;
    std::size_t index;
    Weight weight;
  };
  const BeamCase cases[] = {
      {CapacityProfile::kValley, 12, 0, 432},
      {CapacityProfile::kMountain, 12, 0, 435},
      {CapacityProfile::kMountain, 12, 1, 530},
      {CapacityProfile::kValley, 24, 1, 824},
  };
  SapExactOptions beam;
  beam.max_states = 2000;
  for (const BeamCase& c : cases) {
    const PathInstance inst = e6_instance(c.profile, c.n, c.index);
    const SapExactResult r = sap_exact_profile_dp(inst, beam);
    EXPECT_GT(r.weight, 0) << "n " << c.n << " index " << c.index;
    EXPECT_TRUE(verify_sap(inst, r.solution));
    EXPECT_EQ(r.solution.weight(inst), r.weight);
    EXPECT_EQ(r.weight, c.weight) << "n " << c.n << " index " << c.index;
  }

  // At the ladder's beam the same valley instance is now proven optimal.
  const PathInstance valley = e6_instance(CapacityProfile::kValley, 12, 0);
  beam.max_states = 100'000;
  const SapExactResult r = sap_exact_profile_dp(valley, beam);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.weight, 435);
  EXPECT_TRUE(verify_sap(valley, r.solution));
}

TEST(ProfileDpTest, SolveWorkStaysUnderPinnedStateCountOnE6) {
  // Deterministic work gate: states the profile DP expands while solve_sap
  // runs the E6 n=12 and n=24 cells (5 profiles x 2 instances each). The
  // pins are the counts with bottleneck-capped placements; letting
  // placements rise to the start edge's capacity again expands 283,766 and
  // 73,152 states.
  const std::pair<std::size_t, std::int64_t> cells[] = {{12, 93'746},
                                                        {24, 40'992}};
  for (const auto& [n, pinned] : cells) {
    std::int64_t expanded = 0;
    for (int profile = 0; profile < 5; ++profile) {
      for (std::size_t index = 0; index < 2; ++index) {
        const PathInstance inst =
            e6_instance(static_cast<CapacityProfile>(profile), n, index);
        TelemetryReport report;
        {
          TelemetrySession session(&report);
          const SapSolution sol = solve_sap(inst);
          ASSERT_TRUE(verify_sap(inst, sol));
        }
        expanded += report.count("dp.states.expanded");
      }
    }
    EXPECT_GT(expanded, 0) << "n " << n;
    EXPECT_LE(expanded, pinned) << "n " << n;
  }
}

TEST(UfppProfileDpTest, CrossValidatesBranchAndBound) {
  // Two independently implemented exact UFPP solvers must agree.
  Rng rng(367);
  for (int trial = 0; trial < 40; ++trial) {
    PathGenOptions opt;
    opt.num_edges = static_cast<std::size_t>(rng.uniform_int(2, 8));
    opt.num_tasks = static_cast<std::size_t>(rng.uniform_int(2, 12));
    opt.profile = static_cast<CapacityProfile>(rng.uniform_int(0, 4));
    opt.min_capacity = 3;
    opt.max_capacity = 14;
    const PathInstance inst = generate_path_instance(opt, rng);
    const UfppProfileDpResult dp = ufpp_exact_profile_dp(inst);
    const UfppExactResult bb = ufpp_exact(inst);
    ASSERT_TRUE(dp.proven_optimal);
    ASSERT_TRUE(bb.proven_optimal);
    ASSERT_TRUE(verify_ufpp(inst, dp.solution))
        << verify_ufpp(inst, dp.solution).reason;
    EXPECT_EQ(dp.weight, bb.weight) << "trial " << trial;
    EXPECT_EQ(dp.solution.weight(inst), dp.weight);
  }
}

TEST(UfppProfileDpTest, BeamCapDegradesGracefully) {
  Rng rng(373);
  PathGenOptions opt;
  opt.num_edges = 6;
  opt.num_tasks = 14;
  const PathInstance inst = generate_path_instance(opt, rng);
  UfppProfileDpOptions tight;
  tight.max_states = 2;
  const UfppProfileDpResult r = ufpp_exact_profile_dp(inst, tight);
  EXPECT_TRUE(verify_ufpp(inst, r.solution));
  const UfppProfileDpResult full = ufpp_exact_profile_dp(inst);
  EXPECT_LE(r.weight, full.weight);
}

TEST(ProfileDpTest, SubsetRestriction) {
  const PathInstance inst({4}, {Task{0, 0, 4, 100}, Task{0, 0, 2, 1},
                                Task{0, 0, 2, 1}});
  const std::vector<TaskId> subset{1, 2};
  const SapExactResult r = sap_exact_profile_dp(inst, subset, {});
  EXPECT_EQ(r.weight, 2);
}

}  // namespace
}  // namespace sap
