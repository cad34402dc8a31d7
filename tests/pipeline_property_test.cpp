// Parameterized sweeps over the per-class pipelines' configuration spaces:
// Strip-Pack across backends x profiles x delta, AlmostUniform across beta
// and eps, SAP-U across capacities — feasibility and structural invariants
// at every point.
#include <gtest/gtest.h>

#include <numeric>

#include "src/core/medium_tasks.hpp"
#include "src/core/small_tasks.hpp"
#include "src/gen/generators.hpp"
#include "src/model/verify.hpp"
#include "src/sapu/sapu_solver.hpp"

namespace sap {
namespace {

std::vector<TaskId> all_ids(const PathInstance& inst) {
  std::vector<TaskId> ids(inst.num_tasks());
  std::iota(ids.begin(), ids.end(), TaskId{0});
  return ids;
}

// ---------------------------------------------------------------- small --

struct SmallCase {
  CapacityProfile profile;
  SmallTaskBackend backend;
  Ratio delta;
  std::uint64_t seed;
};

std::string SmallName(const testing::TestParamInfo<SmallCase>& info) {
  static const char* profiles[] = {"Uniform", "Valley", "Mountain",
                                   "Staircase", "Walk"};
  return std::string(profiles[static_cast<int>(info.param.profile)]) +
         (info.param.backend == SmallTaskBackend::kLocalRatio ? "LR" : "LP") +
         "d" + std::to_string(info.param.delta.den) + "s" +
         std::to_string(info.param.seed);
}

class SmallPipelineTest : public testing::TestWithParam<SmallCase> {};

TEST_P(SmallPipelineTest, FeasibleAndOctaveConfined) {
  const SmallCase& param = GetParam();
  Rng rng(param.seed * 2713 + static_cast<std::uint64_t>(param.delta.den));
  PathGenOptions opt;
  opt.num_edges = 12;
  opt.num_tasks = 36;
  opt.profile = param.profile;
  opt.min_capacity = 16;
  opt.max_capacity = 96;
  opt.demand = DemandClass::kSmall;
  opt.delta = param.delta;
  const PathInstance inst = generate_path_instance(opt, rng);

  SolverParams params;
  params.delta = param.delta;
  params.small_backend = param.backend;
  params.seed = param.seed;
  const SapSolution sol = solve_small_tasks(inst, all_ids(inst), params);
  ASSERT_TRUE(verify_sap(inst, sol)) << verify_sap(inst, sol).reason;
  // Octave confinement: task with bottleneck in [2^t, 2^(t+1)) occupies
  // [2^(t-1), 2^t).
  for (const Placement& p : sol.placements) {
    Value big_b = 1;
    while (big_b * 2 <= inst.bottleneck(p.task)) big_b *= 2;
    EXPECT_GE(p.height, big_b / 2);
    EXPECT_LE(p.height + inst.task(p.task).demand, big_b);
  }
  // No double placements.
  std::vector<bool> seen(inst.num_tasks(), false);
  for (const Placement& p : sol.placements) {
    EXPECT_FALSE(seen[static_cast<std::size_t>(p.task)]);
    seen[static_cast<std::size_t>(p.task)] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SmallPipelineTest,
    testing::ValuesIn([] {
      std::vector<SmallCase> cases;
      for (CapacityProfile profile :
           {CapacityProfile::kUniform, CapacityProfile::kValley,
            CapacityProfile::kRandomWalk}) {
        for (SmallTaskBackend backend :
             {SmallTaskBackend::kLocalRatio, SmallTaskBackend::kLpRounding}) {
          for (Ratio delta : {Ratio{1, 4}, Ratio{1, 16}}) {
            for (std::uint64_t seed : {1ULL, 2ULL}) {
              cases.push_back({profile, backend, delta, seed});
            }
          }
        }
      }
      return cases;
    }()),
    SmallName);

// --------------------------------------------------------------- medium --

struct MediumCase {
  Ratio beta;
  double eps;
  int mode;  // ElevatorMode as int
  std::uint64_t seed;
};

std::string MediumName(const testing::TestParamInfo<MediumCase>& info) {
  std::string name = "b";
  name += std::to_string(info.param.beta.den) + "e" +
          std::to_string(static_cast<int>(info.param.eps * 10)) + "m" +
          std::to_string(info.param.mode) + "s" +
          std::to_string(info.param.seed);
  return name;
}

class MediumPipelineTest : public testing::TestWithParam<MediumCase> {};

TEST_P(MediumPipelineTest, FeasibleAcrossConfigurations) {
  const MediumCase& param = GetParam();
  Rng rng(param.seed * 6133 + static_cast<std::uint64_t>(param.beta.den));
  PathGenOptions opt;
  opt.num_edges = 10;
  opt.num_tasks = 16;
  opt.min_capacity = 8;
  opt.max_capacity = 32;
  opt.demand = DemandClass::kMedium;
  opt.delta = {1, 8};
  const PathInstance inst = generate_path_instance(opt, rng);

  SolverParams params;
  params.beta = param.beta;
  params.eps = param.eps;
  params.elevator_mode = param.mode;
  params.validate();
  const SapSolution sol = solve_medium_tasks(inst, all_ids(inst), params);
  ASSERT_TRUE(verify_sap(inst, sol)) << verify_sap(inst, sol).reason;
  std::vector<bool> seen(inst.num_tasks(), false);
  for (const Placement& p : sol.placements) {
    EXPECT_FALSE(seen[static_cast<std::size_t>(p.task)]);
    seen[static_cast<std::size_t>(p.task)] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MediumPipelineTest,
    testing::ValuesIn([] {
      std::vector<MediumCase> cases;
      for (Ratio beta : {Ratio{1, 4}, Ratio{1, 8}}) {
        for (double eps : {1.0, 0.5}) {
          for (int mode : {0, 1}) {
            for (std::uint64_t seed : {1ULL, 2ULL}) {
              cases.push_back({beta, eps, mode, seed});
            }
          }
        }
      }
      return cases;
    }()),
    MediumName);

// ---------------------------------------------------------------- sap-u --

class SapUniformSweepTest : public testing::TestWithParam<Value> {};

TEST_P(SapUniformSweepTest, FeasibleAcrossCapacities) {
  Rng rng(409 + static_cast<std::uint64_t>(GetParam()));
  PathGenOptions opt;
  opt.num_edges = 10;
  opt.num_tasks = 24;
  opt.profile = CapacityProfile::kUniform;
  opt.min_capacity = GetParam();
  opt.max_capacity = GetParam();
  const PathInstance inst = generate_path_instance(opt, rng);
  SapUniformReport report;
  const SapSolution sol = solve_sap_uniform(inst, {}, &report);
  ASSERT_TRUE(verify_sap(inst, sol)) << verify_sap(inst, sol).reason;
  EXPECT_GE(report.strip_retention, 0.0);
  EXPECT_LE(report.strip_retention, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Caps, SapUniformSweepTest,
                         testing::Values<Value>(4, 8, 16, 64, 256, 1024));

}  // namespace
}  // namespace sap
