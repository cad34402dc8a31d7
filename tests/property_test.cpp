// Parameterized property tests over randomized workloads: the paper's
// structural observations must hold on every instance and every solution
// the library produces.
#include <gtest/gtest.h>

#include <numeric>

#include "src/cert/ladder.hpp"
#include "src/core/sap_solver.hpp"
#include "src/exact/profile_dp.hpp"
#include "src/gen/generators.hpp"
#include "src/model/gravity.hpp"
#include "src/model/verify.hpp"
#include "src/ufpp/branch_and_bound.hpp"

namespace sap {
namespace {

struct PropertyCase {
  CapacityProfile profile;
  DemandClass demand;
  std::uint64_t seed;
};

std::string CaseName(const testing::TestParamInfo<PropertyCase>& info) {
  static const char* profiles[] = {"Uniform", "Valley", "Mountain",
                                   "Staircase", "RandomWalk"};
  static const char* demands[] = {"Small", "Medium", "Large", "Mixed"};
  return std::string(profiles[static_cast<int>(info.param.profile)]) +
         demands[static_cast<int>(info.param.demand)] +
         std::to_string(info.param.seed);
}

class SapPropertyTest : public testing::TestWithParam<PropertyCase> {
 protected:
  PathInstance make_instance(std::size_t num_edges, std::size_t num_tasks,
                             Value cap_lo, Value cap_hi) {
    Rng rng(GetParam().seed * 7919 + 13);
    PathGenOptions opt;
    opt.num_edges = num_edges;
    opt.num_tasks = num_tasks;
    opt.profile = GetParam().profile;
    opt.demand = GetParam().demand;
    opt.min_capacity = cap_lo;
    opt.max_capacity = cap_hi;
    return generate_path_instance(opt, rng);
  }

  static std::vector<TaskId> all_ids(const PathInstance& inst) {
    std::vector<TaskId> ids(inst.num_tasks());
    std::iota(ids.begin(), ids.end(), TaskId{0});
    return ids;
  }
};

TEST_P(SapPropertyTest, Observation1LoadBoundedByTwiceMaxBottleneck) {
  const PathInstance inst = make_instance(10, 14, 4, 24);
  const UfppExactResult sol = ufpp_exact(inst);
  if (sol.solution.empty()) GTEST_SKIP();
  Value max_b = 0;
  for (TaskId j : sol.solution.tasks) {
    max_b = std::max(max_b, inst.bottleneck(j));
  }
  EXPECT_LE(max_load(inst, sol.solution.tasks), 2 * max_b);
}

TEST_P(SapPropertyTest, Observation2MakespanBoundedByMaxBottleneck) {
  // Observation 2 holds for every feasible solution, so a beam-truncated DP
  // result (proven_optimal == false) is still a valid witness.
  const PathInstance inst = make_instance(8, 10, 4, 16);
  SapExactOptions opt;
  opt.max_states = 100'000;
  const SapExactResult sol = sap_exact_profile_dp(inst, opt);
  if (sol.solution.empty()) GTEST_SKIP();
  Value max_b = 0;
  for (const Placement& p : sol.solution.placements) {
    max_b = std::max(max_b, inst.bottleneck(p.task));
  }
  EXPECT_LE(max_makespan(inst, sol.solution), max_b);
}

TEST_P(SapPropertyTest, LoadNeverExceedsMakespan) {
  const PathInstance inst = make_instance(8, 10, 4, 16);
  SapExactOptions opt;
  opt.max_states = 100'000;
  const SapExactResult sol = sap_exact_profile_dp(inst, opt);
  const auto loads = edge_loads(inst, sol.solution.to_ufpp().tasks);
  const auto spans = edge_makespans(inst, sol.solution);
  for (std::size_t e = 0; e < loads.size(); ++e) {
    EXPECT_LE(loads[e], spans[e]);
  }
}

TEST_P(SapPropertyTest, GravityPreservesWeightAndFeasibility) {
  const PathInstance inst = make_instance(8, 10, 4, 16);
  SapExactOptions opt;
  opt.max_states = 100'000;
  const SapExactResult sol = sap_exact_profile_dp(inst, opt);
  const SapSolution grounded = apply_gravity(inst, sol.solution);
  EXPECT_TRUE(verify_sap(inst, grounded));
  EXPECT_TRUE(is_grounded(inst, grounded));
  EXPECT_EQ(grounded.weight(inst), sol.solution.weight(inst));
}

TEST_P(SapPropertyTest, FullSolverFeasibleAndWithinBound) {
  const PathInstance inst = make_instance(8, 12, 4, 16);
  SolverParams params;
  params.eps = 1.0;
  const SapSolution sol = solve_sap(inst, params);
  ASSERT_TRUE(verify_sap(inst, sol)) << verify_sap(inst, sol).reason;
  const SapExactResult opt = sap_exact_profile_dp(inst);
  if (opt.weight == 0) GTEST_SKIP();
  // A conservative envelope of the (9+eps) guarantee at eps = 1. A beam-
  // truncated oracle still returns a feasible solution, so its weight is a
  // lower bound on OPT either way.
  EXPECT_GE(10 * sol.weight(inst), opt.weight);
  if (opt.proven_optimal) {
    EXPECT_LE(sol.weight(inst), opt.weight);
  } else {
    // No proven optimum: bound the solver by the certification ladder.
    const cert::LadderResult ladder = cert::run_upper_bound_ladder(inst);
    ASSERT_TRUE(ladder.proven);
    EXPECT_LE(sol.weight(inst), ladder.best.value);
  }
}

TEST_P(SapPropertyTest, SapOptimumNeverExceedsUfppOptimum) {
  const PathInstance inst = make_instance(7, 9, 4, 12);
  const SapExactResult sap_opt = sap_exact_profile_dp(inst);
  const UfppExactResult ufpp_opt = ufpp_exact(inst);
  ASSERT_TRUE(sap_opt.proven_optimal);
  ASSERT_TRUE(ufpp_opt.proven_optimal);
  EXPECT_LE(sap_opt.weight, ufpp_opt.weight);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SapPropertyTest,
    testing::ValuesIn([] {
      std::vector<PropertyCase> cases;
      for (CapacityProfile profile :
           {CapacityProfile::kUniform, CapacityProfile::kValley,
            CapacityProfile::kMountain, CapacityProfile::kStaircase,
            CapacityProfile::kRandomWalk}) {
        for (DemandClass demand :
             {DemandClass::kSmall, DemandClass::kMedium, DemandClass::kLarge,
              DemandClass::kMixed}) {
          for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
            cases.push_back({profile, demand, seed});
          }
        }
      }
      return cases;
    }()),
    CaseName);

}  // namespace
}  // namespace sap
