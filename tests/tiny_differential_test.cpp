// Exhaustive tiny-instance differential sweep (no random sampling): every
// instance of a systematically enumerated family with <= 6 tasks and
// capacities <= 6 is pushed through the full approximation pipelines and
// checked against exact oracles —
//   paths: solve_sap output feasible under model/verify and weight <= the
//          exact/profile_dp optimum (proven optimal at these sizes), which
//          must equal exact/brute_force and the DP optimum of the mirrored
//          instance;
//   rings: solve_ring_sap output feasible and weight <= an independent
//          test-local brute force over subsets x orientations x heights.
// This hardens the randomized coverage of property_test.cpp and
// ring_property_test.cpp at the sizes where exhaustive checking is free.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "src/core/ring_solver.hpp"
#include "src/core/sap_solver.hpp"
#include "src/exact/brute_force.hpp"
#include "src/exact/profile_dp.hpp"
#include "src/lp/ufpp_lp.hpp"
#include "src/model/verify.hpp"
#include "tests/e6_instances.hpp"

namespace sap {
namespace {

constexpr std::size_t kMaxTasks = 6;

/// Deterministic small weight so ties and dominance vary across the pool.
Weight task_weight(int first, int last, Value demand) {
  return 1 + (first + 2 * last + 3 * static_cast<int>(demand)) % 5;
}

/// All distinct candidate demands for a range with bottleneck b: unit, half,
/// and full height.
std::vector<Value> candidate_demands(Value b) {
  std::vector<Value> demands{1, (b + 1) / 2, b};
  std::ranges::sort(demands);
  demands.erase(std::unique(demands.begin(), demands.end()), demands.end());
  return demands;
}

/// The task pool of a capacity pattern: every edge range crossed with every
/// candidate demand (all of them fit under their bottleneck by
/// construction).
std::vector<Task> path_task_pool(const std::vector<Value>& caps) {
  std::vector<Task> pool;
  const int m = static_cast<int>(caps.size());
  for (int first = 0; first < m; ++first) {
    for (int last = first; last < m; ++last) {
      Value b = caps[static_cast<std::size_t>(first)];
      for (int e = first + 1; e <= last; ++e) {
        b = std::min(b, caps[static_cast<std::size_t>(e)]);
      }
      for (Value d : candidate_demands(b)) {
        pool.push_back({static_cast<EdgeId>(first), static_cast<EdgeId>(last),
                        d, task_weight(first, last, d)});
      }
    }
  }
  return pool;
}

/// The instance read right to left: capacities reversed, every task mapped to
/// (m-1-last, m-1-first). It has the same SAP optimum, but the DP sweeps it
/// in the opposite direction, so a placement ceiling that misses the edges
/// at one end of a task's span shows up as a weight mismatch.
PathInstance mirrored(const PathInstance& inst) {
  std::vector<Value> caps(inst.capacities().rbegin(),
                          inst.capacities().rend());
  const auto last_edge = static_cast<EdgeId>(caps.size() - 1);
  std::vector<Task> tasks;
  for (const Task& t : inst.tasks()) {
    tasks.push_back(
        {last_edge - t.last, last_edge - t.first, t.demand, t.weight});
  }
  return PathInstance(std::move(caps), std::move(tasks));
}

/// Every window of w <= kMaxTasks consecutive pool tasks, for every w.
/// Linear in the pool (not exponential), yet covers every task in many
/// different neighbourhoods, including the singleton and the densest mixes.
template <typename TaskT, typename Visit>
void for_each_window(const std::vector<TaskT>& pool, const Visit& visit) {
  for (std::size_t w = 1; w <= std::min(kMaxTasks, pool.size()); ++w) {
    for (std::size_t start = 0; start + w <= pool.size(); ++start) {
      visit(std::vector<TaskT>(
          pool.begin() + static_cast<std::ptrdiff_t>(start),
          pool.begin() + static_cast<std::ptrdiff_t>(start + w)));
    }
  }
}

TEST(TinyDifferentialTest, PathSolverNeverBeatsOrBreaksTheOracle) {
  const std::vector<std::vector<Value>> patterns = {
      {1},          {2},          {3},          {4},          {5},
      {6},          {1, 1},       {1, 6},       {6, 1},       {2, 4},
      {4, 2},       {6, 6},       {3, 5},       {5, 3},       {1, 1, 1},
      {3, 3, 3},    {6, 6, 6},    {1, 6, 1},    {6, 1, 6},    {2, 4, 6},
      {6, 4, 2},    {5, 2, 5},    {1, 2, 3, 4}, {4, 3, 2, 1}, {6, 1, 6, 1},
      {2, 6, 6, 2}, {5, 5, 5, 5}, {3, 1, 4, 1},
  };
  std::size_t instances = 0;
  for (const auto& caps : patterns) {
    const std::vector<Task> pool = path_task_pool(caps);
    for_each_window(pool, [&](std::vector<Task> tasks) {
      const PathInstance inst(caps, std::move(tasks));
      ++instances;

      const SapSolution sol = solve_sap(inst);
      const VerifyResult feasible = verify_sap(inst, sol);
      ASSERT_TRUE(feasible) << "instance " << instances << ": "
                            << feasible.reason;

      const SapExactResult oracle = sap_exact_profile_dp(inst);
      ASSERT_TRUE(oracle.proven_optimal) << "instance " << instances;
      EXPECT_EQ(oracle.weight, sap_brute_force(inst).weight(inst))
          << "instance " << instances;
      EXPECT_EQ(sap_exact_profile_dp(mirrored(inst)).weight, oracle.weight)
          << "instance " << instances;
      EXPECT_LE(sol.weight(inst), oracle.weight) << "instance " << instances;
      // At <= 6 tasks the pipeline must find something whenever anything
      // fits at all (each class solver alone packs at least one task).
      if (oracle.weight > 0) {
        EXPECT_GT(sol.weight(inst), 0) << "instance " << instances;
      }
    });
  }
  // Exhaustiveness guard: the family must not silently collapse (the
  // enumeration above yields ~1500 instances; allow slack for tweaks).
  EXPECT_GT(instances, 1000u);
}

TEST(TinyDifferentialTest, MirroredE6InstancesHaveTheSameDpOptimum) {
  // The mirror check of the sweep above on the 10 E6 n=12 pool instances,
  // whose capacities vary enough that a placement above its task's
  // bottleneck would fit some edges before it stops fitting.
  for (int profile = 0; profile < 5; ++profile) {
    for (std::size_t index = 0; index < 2; ++index) {
      const PathInstance inst =
          e6_instance(static_cast<CapacityProfile>(profile), 12, index);
      const SapExactResult forward = sap_exact_profile_dp(inst);
      const SapExactResult backward = sap_exact_profile_dp(mirrored(inst));
      ASSERT_TRUE(forward.proven_optimal);
      ASSERT_TRUE(backward.proven_optimal);
      EXPECT_EQ(backward.weight, forward.weight)
          << "profile " << profile << " index " << index;
    }
  }
}

TEST(TinyDifferentialTest, SteepestEdgePricingMatchesDantzigOnRelaxations) {
  // Every tiny UFPP relaxation is solved under both pricing rules: the
  // pivot paths differ but the optima must agree to float tolerance, and
  // the steepest-edge value must still upper-bound the exact integral
  // optimum — the contract the branch-and-bound bound loop depends on.
  const std::vector<std::vector<Value>> patterns = {
      {2},       {4},       {1, 6},    {4, 2},        {6, 6},
      {1, 6, 1}, {2, 4, 6}, {5, 2, 5}, {3, 1, 4, 1},
  };
  std::size_t instances = 0;
  for (const auto& caps : patterns) {
    const std::vector<Task> pool = path_task_pool(caps);
    for_each_window(pool, [&](std::vector<Task> tasks) {
      const PathInstance inst(caps, std::move(tasks));
      ++instances;

      const LpProblem relax = build_ufpp_relaxation(inst);
      const LpSolution dantzig = solve_lp(relax);
      LpOptions options;
      options.pricing = LpPricing::kSteepestEdge;
      const LpSolution steepest = solve_lp(relax, options);
      ASSERT_EQ(dantzig.status, LpStatus::kOptimal)
          << "instance " << instances;
      ASSERT_EQ(steepest.status, LpStatus::kOptimal)
          << "instance " << instances;
      EXPECT_NEAR(dantzig.objective, steepest.objective, 1e-6)
          << "instance " << instances;

      const SapExactResult oracle = sap_exact_profile_dp(inst);
      ASSERT_TRUE(oracle.proven_optimal) << "instance " << instances;
      EXPECT_GE(steepest.objective + 1e-6,
                static_cast<double>(oracle.weight))
          << "instance " << instances;
    });
  }
  EXPECT_GT(instances, 300u);
}

/// A ring task plus its enumeration metadata.
struct TinyRingTask {
  RingTask task;
};

/// Independent exact ring-SAP oracle: DFS over tasks in order; each task is
/// skipped or placed with an orientation and an integral height (integral
/// heights are WLOG for integral demands, the gravity argument of
/// Observation 11 applied on every edge of the route). Written without any
/// solver machinery so it cannot share a bug with solve_ring_sap.
Weight ring_opt_brute_force(const RingInstance& ring) {
  struct Placed {
    std::vector<EdgeId> route;
    Value lo = 0;
    Value hi = 0;
  };
  std::vector<Placed> placed;
  const std::size_t n = ring.num_tasks();

  // Suffix weights for the standard DFS weight-pruning bound.
  std::vector<Weight> suffix(n + 1, 0);
  for (std::size_t j = n; j-- > 0;) {
    suffix[j] = suffix[j + 1] + ring.task(static_cast<TaskId>(j)).weight;
  }

  Weight best = 0;
  std::function<void(std::size_t, Weight)> dfs = [&](std::size_t j,
                                                     Weight weight) {
    best = std::max(best, weight);
    if (j == n || weight + suffix[j] <= best) return;
    const auto id = static_cast<TaskId>(j);
    const RingTask& t = ring.task(id);
    for (const bool cw : {true, false}) {
      const std::vector<EdgeId> route = ring.route_edges(id, cw);
      const Value b = ring.route_bottleneck(id, cw);
      if (t.demand > b) continue;
      for (Value h = 0; h + t.demand <= b; ++h) {
        const bool clash = std::ranges::any_of(placed, [&](const Placed& p) {
          if (h >= p.hi || h + t.demand <= p.lo) return false;
          return std::ranges::any_of(route, [&](EdgeId e) {
            return std::ranges::find(p.route, e) != p.route.end();
          });
        });
        if (clash) continue;
        placed.push_back({route, h, h + t.demand});
        dfs(j + 1, weight + t.weight);
        placed.pop_back();
      }
    }
    dfs(j + 1, weight);  // skip
  };
  dfs(0, 0);
  return best;
}

std::vector<TinyRingTask> ring_task_pool(const std::vector<Value>& caps) {
  std::vector<TinyRingTask> pool;
  const int m = static_cast<int>(caps.size());
  for (int start = 0; start < m; ++start) {
    for (int end = 0; end < m; ++end) {
      if (start == end) continue;
      // Bottleneck of the better orientation, computed from scratch.
      Value cw = caps[static_cast<std::size_t>(start)];
      for (int v = start; v != end; v = (v + 1) % m) {
        cw = std::min(cw, caps[static_cast<std::size_t>(v)]);
      }
      Value ccw = caps[static_cast<std::size_t>(end)];
      for (int v = end; v != start; v = (v + 1) % m) {
        ccw = std::min(ccw, caps[static_cast<std::size_t>(v)]);
      }
      const Value b = std::max(cw, ccw);
      for (Value d : candidate_demands(b)) {
        pool.push_back({{start, end, d, task_weight(start, end, d)}});
      }
    }
  }
  return pool;
}

TEST(TinyDifferentialTest, RingSolverNeverBeatsOrBreaksBruteForce) {
  // Rings need >= 3 edges; DFS cost bounds the sweep at 4 tasks of height
  // <= 4, which is still exhaustive over the enumerated family.
  const std::vector<std::vector<Value>> patterns = {
      {2, 2, 2}, {4, 4, 4},    {1, 2, 3},    {4, 2, 4},
      {3, 1, 3}, {2, 2, 2, 2}, {4, 4, 4, 4}, {1, 4, 2, 3},
  };
  std::size_t instances = 0;
  for (const auto& caps : patterns) {
    std::vector<TinyRingTask> pool = ring_task_pool(caps);
    for_each_window(pool, [&](const std::vector<TinyRingTask>& window) {
      if (window.size() > 4) return;
      std::vector<RingTask> tasks;
      for (const TinyRingTask& t : window) tasks.push_back(t.task);
      const RingInstance ring(caps, std::move(tasks));
      ++instances;

      const RingSapSolution sol = solve_ring_sap(ring);
      const VerifyResult feasible = verify_ring_sap(ring, sol);
      ASSERT_TRUE(feasible) << "ring instance " << instances << ": "
                            << feasible.reason;

      const Weight oracle = ring_opt_brute_force(ring);
      EXPECT_LE(ring.solution_weight(sol), oracle)
          << "ring instance " << instances;
      if (oracle > 0) {
        EXPECT_GT(ring.solution_weight(sol), 0)
            << "ring instance " << instances;
      }
    });
  }
  EXPECT_GT(instances, 500u);
}

}  // namespace
}  // namespace sap
