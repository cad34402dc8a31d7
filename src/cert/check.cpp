// The verifier. Everything here is deliberately self-contained: feasibility,
// weights, dual bounds and the exact rungs are re-derived with verifier-local
// code so a bug in a producer (certify.cpp, ladder.cpp, model/verify.cpp)
// cannot vouch for itself. Helper duplication with those files is by design.
#include "src/cert/check.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace sap::cert {
namespace {

std::string fmt_task(TaskId j) { return "task " + std::to_string(j); }

// ---------------------------------------------------------------------------
// Local checked arithmetic (128-bit accumulators; rejects on any overflow).

bool add128(Int128 a, Int128 b, Int128* out) {
  return !__builtin_add_overflow(a, b, out);
}

bool mul128(Int128 a, Int128 b, Int128* out) {
  return !__builtin_mul_overflow(a, b, out);
}

// ---------------------------------------------------------------------------
// Path feasibility, re-derived: O(k^2) pairwise interval tests instead of the
// library verifier's sweep, and per-edge capacity by direct scan.

CheckResult check_path_feasibility(const PathInstance& inst,
                                   const SapSolution& sol) {
  const auto n = static_cast<TaskId>(inst.num_tasks());
  std::vector<bool> used(inst.num_tasks(), false);
  for (const Placement& p : sol.placements) {
    if (p.task < 0 || p.task >= n) {
      return CheckResult::fail(fmt_task(p.task) + " out of range");
    }
    if (used[static_cast<std::size_t>(p.task)]) {
      return CheckResult::fail(fmt_task(p.task) + " placed twice");
    }
    used[static_cast<std::size_t>(p.task)] = true;
    if (p.height < 0) {
      return CheckResult::fail(fmt_task(p.task) + " has negative height");
    }
    const Task& t = inst.task(p.task);
    Value top = 0;
    if (__builtin_add_overflow(p.height, t.demand, &top)) {
      return CheckResult::fail(fmt_task(p.task) + " height + demand overflows");
    }
    for (EdgeId e = t.first; e <= t.last; ++e) {
      if (top > inst.capacity(e)) {
        return CheckResult::fail(fmt_task(p.task) + " exceeds capacity on edge " +
                                 std::to_string(e));
      }
    }
  }
  for (std::size_t a = 0; a < sol.placements.size(); ++a) {
    const Placement& pa = sol.placements[a];
    const Task& ta = inst.task(pa.task);
    // sapkit-analyze: allow(exact-arith) -- every placement passed the
    // checked height + demand overflow test in the loop above.
    const Value top_a = pa.height + ta.demand;  // in range: checked above
    for (std::size_t b = a + 1; b < sol.placements.size(); ++b) {
      const Placement& pb = sol.placements[b];
      const Task& tb = inst.task(pb.task);
      const bool share_edge = ta.first <= tb.last && tb.first <= ta.last;
      if (!share_edge) continue;
      // sapkit-analyze: allow(exact-arith) -- same checked bound as top_a.
      const Value top_b = pb.height + tb.demand;
      const bool disjoint = top_a <= pb.height || top_b <= pa.height;
      if (!disjoint) {
        return CheckResult::fail(fmt_task(pa.task) + " and " +
                                 fmt_task(pb.task) +
                                 " overlap vertically on a shared edge");
      }
    }
  }
  return CheckResult::ok();
}

// ---------------------------------------------------------------------------
// Ring feasibility, re-derived, including a local route walk that mirrors the
// documented route semantics (clockwise: start -> end in increasing vertex
// order; counter-clockwise routes walk forward from `end` back to `start`).

std::vector<EdgeId> local_ring_route(const RingTask& t, std::size_t num_edges,
                                     bool clockwise) {
  const auto m = static_cast<int>(num_edges);
  std::vector<EdgeId> edges;
  int v = clockwise ? t.start : t.end;
  const int stop = clockwise ? t.end : t.start;
  while (v != stop) {
    edges.push_back(static_cast<EdgeId>(v));
    v = (v + 1) % m;
  }
  return edges;
}

CheckResult check_ring_feasibility(const RingInstance& inst,
                                   const RingSapSolution& sol) {
  const auto n = static_cast<TaskId>(inst.num_tasks());
  std::vector<bool> used(inst.num_tasks(), false);
  std::vector<std::vector<std::pair<Value, Value>>> spans(inst.num_edges());
  for (const RingPlacement& p : sol.placements) {
    if (p.task < 0 || p.task >= n) {
      return CheckResult::fail(fmt_task(p.task) + " out of range");
    }
    if (used[static_cast<std::size_t>(p.task)]) {
      return CheckResult::fail(fmt_task(p.task) + " placed twice");
    }
    used[static_cast<std::size_t>(p.task)] = true;
    if (p.height < 0) {
      return CheckResult::fail(fmt_task(p.task) + " has negative height");
    }
    const RingTask& t = inst.task(p.task);
    Value top = 0;
    if (__builtin_add_overflow(p.height, t.demand, &top)) {
      return CheckResult::fail(fmt_task(p.task) + " height + demand overflows");
    }
    for (EdgeId e : local_ring_route(t, inst.num_edges(), p.clockwise)) {
      if (top > inst.capacity(e)) {
        return CheckResult::fail(fmt_task(p.task) +
                                 " exceeds capacity on edge " +
                                 std::to_string(e));
      }
      spans[static_cast<std::size_t>(e)].emplace_back(p.height, top);
    }
  }
  for (std::size_t e = 0; e < spans.size(); ++e) {
    auto& intervals = spans[e];
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      if (intervals[i].first < intervals[i - 1].second) {
        return CheckResult::fail("vertical overlap on edge " +
                                 std::to_string(e));
      }
    }
  }
  return CheckResult::ok();
}

// ---------------------------------------------------------------------------
// Dual-bound re-evaluation from the witness alone.

struct TaskView {
  Value demand = 0;
  Weight weight = 0;
};

/// Recomputes floor((sum c_e*Y_e + sum_j max(0, w_j*S - d_j*price_j)) / S)
/// where price_j is the caller-supplied price sum of task j's (cheapest)
/// route. Fails on overflow or malformed witness values.
CheckResult recheck_dual_bound(const std::vector<Value>& capacities,
                               const DualWitness& dual,
                               const std::vector<Int128>& task_price,
                               const std::vector<TaskView>& tasks,
                               Weight claimed) {
  if (dual.scale <= 0) return CheckResult::fail("dual scale must be positive");
  if (dual.edge_price.size() != capacities.size()) {
    return CheckResult::fail("dual witness has wrong edge count");
  }
  for (std::int64_t y : dual.edge_price) {
    if (y < 0) return CheckResult::fail("negative dual price");
  }
  Int128 total = 0;
  for (std::size_t e = 0; e < capacities.size(); ++e) {
    Int128 term = 0;
    if (!mul128(capacities[e], dual.edge_price[e], &term) ||
        !add128(total, term, &total)) {
      return CheckResult::fail("dual bound overflows");
    }
  }
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    Int128 ws = 0;
    Int128 dp = 0;
    if (!mul128(tasks[j].weight, dual.scale, &ws) ||
        !mul128(tasks[j].demand, task_price[j], &dp)) {
      return CheckResult::fail("dual bound overflows");
    }
    Int128 slack = ws - dp;
    if (slack < 0) slack = 0;
    if (!add128(total, slack, &total)) {
      return CheckResult::fail("dual bound overflows");
    }
  }
  const Int128 recomputed = total / dual.scale;
  if (recomputed != static_cast<Int128>(claimed)) {
    return CheckResult::fail("dual witness does not support the recorded "
                             "upper bound");
  }
  return CheckResult::ok();
}

// ---------------------------------------------------------------------------
// Verifier-local exact SAP by height DFS (rung exact_dp). Budget-capped:
// blowing the budget REJECTS the certificate as unverifiable.

struct SapDfs {
  const PathInstance& inst;
  std::size_t max_nodes;
  std::size_t nodes = 0;
  bool budget_ok = true;
  std::vector<Int128> suffix_weight;  // suffix_weight[j] = sum of w_k, k >= j
  std::vector<Placement> chosen;
  Int128 best = 0;

  explicit SapDfs(const PathInstance& instance, std::size_t budget)
      : inst(instance), max_nodes(budget) {
    const std::size_t n = inst.num_tasks();
    suffix_weight.assign(n + 1, 0);
    // sapkit-analyze: begin-allow(exact-arith) -- Int128 accumulator; a sum of
    // n int64 weights cannot overflow 128 bits.
    for (std::size_t j = n; j-- > 0;) {
      suffix_weight[j] =
          suffix_weight[j + 1] + inst.task(static_cast<TaskId>(j)).weight;
    }
    // sapkit-analyze: end-allow(exact-arith)
  }

  [[nodiscard]] bool fits(TaskId j, Value height) const {
    const Task& t = inst.task(j);
    // sapkit-analyze: begin-allow(exact-arith) -- heights are enumerated up to
    // bottleneck - demand, so every top is <= bottleneck <= 2^62: exact.
    const Value top = height + t.demand;
    for (const Placement& p : chosen) {
      const Task& other = inst.task(p.task);
      if (t.first > other.last || other.first > t.last) continue;
      const Value other_top = p.height + other.demand;
      if (!(top <= p.height || other_top <= height)) return false;
    }
    // sapkit-analyze: end-allow(exact-arith)
    return true;
  }

  // sapkit-analyze: begin-allow(exact-arith) -- the running weight is an Int128
  // accumulator over int64 task weights: no overflow is possible.
  void run(std::size_t j, Int128 weight) {
    if (++nodes > max_nodes) {
      budget_ok = false;
      return;
    }
    if (j == inst.num_tasks()) {
      best = std::max(best, weight);
      return;
    }
    if (weight + suffix_weight[j] <= best) return;  // suffix-weight pruning
    const auto id = static_cast<TaskId>(j);
    const Task& t = inst.task(id);
    // Integral heights are exhaustive for integral demands (gravity).
    const Value limit = inst.bottleneck(id) - t.demand;
    for (Value h = 0; h <= limit && budget_ok; ++h) {
      if (!fits(id, h)) continue;
      chosen.push_back({id, h});
      run(j + 1, weight + t.weight);
      chosen.pop_back();
    }
    if (budget_ok) run(j + 1, weight);
  }
  // sapkit-analyze: end-allow(exact-arith)
};

CheckResult recheck_exact_dp(const PathInstance& inst, Weight claimed,
                             const CheckOptions& options) {
  if (inst.num_tasks() > options.exact_recheck_max_tasks) {
    return CheckResult::fail("exact_dp rung unverifiable: too many tasks for "
                             "the recheck budget");
  }
  for (Value c : inst.capacities()) {
    if (c > options.exact_recheck_max_capacity) {
      return CheckResult::fail("exact_dp rung unverifiable: capacity exceeds "
                               "the recheck budget");
    }
  }
  SapDfs dfs(inst, options.exact_recheck_max_nodes);
  dfs.run(0, 0);
  if (!dfs.budget_ok) {
    return CheckResult::fail("exact_dp rung unverifiable: recheck node budget "
                             "exhausted");
  }
  if (dfs.best != static_cast<Int128>(claimed)) {
    return CheckResult::fail("exact_dp rung does not match the recomputed "
                             "SAP optimum");
  }
  return CheckResult::ok();
}

// ---------------------------------------------------------------------------
// Verifier-local exact UFPP by subset DFS (rung ufpp_bnb).

struct UfppDfs {
  const PathInstance& inst;
  std::size_t max_nodes;
  std::size_t nodes = 0;
  bool budget_ok = true;
  std::vector<Int128> suffix_weight;
  std::vector<Value> remaining;  // residual capacity per edge
  Int128 best = 0;

  explicit UfppDfs(const PathInstance& instance, std::size_t budget)
      : inst(instance), max_nodes(budget) {
    const std::size_t n = inst.num_tasks();
    suffix_weight.assign(n + 1, 0);
    // sapkit-analyze: begin-allow(exact-arith) -- Int128 accumulator; a sum of
    // n int64 weights cannot overflow 128 bits.
    for (std::size_t j = n; j-- > 0;) {
      suffix_weight[j] =
          suffix_weight[j + 1] + inst.task(static_cast<TaskId>(j)).weight;
    }
    // sapkit-analyze: end-allow(exact-arith)
    remaining = inst.capacities();
  }

  // sapkit-analyze: begin-allow(exact-arith) -- the running weight is an Int128
  // accumulator, and the residual-capacity restore only returns `remaining`
  // to a prior value <= capacity <= 2^62: both stay exact.
  void run(std::size_t j, Int128 weight) {
    if (++nodes > max_nodes) {
      budget_ok = false;
      return;
    }
    if (j == inst.num_tasks()) {
      best = std::max(best, weight);
      return;
    }
    if (weight + suffix_weight[j] <= best) return;
    const Task& t = inst.task(static_cast<TaskId>(j));
    bool fits = true;
    for (EdgeId e = t.first; e <= t.last; ++e) {
      if (remaining[static_cast<std::size_t>(e)] < t.demand) {
        fits = false;
        break;
      }
    }
    if (fits) {
      for (EdgeId e = t.first; e <= t.last; ++e) {
        remaining[static_cast<std::size_t>(e)] -= t.demand;
      }
      run(j + 1, weight + t.weight);
      for (EdgeId e = t.first; e <= t.last; ++e) {
        remaining[static_cast<std::size_t>(e)] += t.demand;
      }
    }
    if (budget_ok) run(j + 1, weight);
  }
  // sapkit-analyze: end-allow(exact-arith)
};

CheckResult recheck_ufpp_bnb(const PathInstance& inst, Weight claimed,
                             const CheckOptions& options) {
  if (inst.num_tasks() > options.bnb_recheck_max_tasks) {
    return CheckResult::fail("ufpp_bnb rung unverifiable: too many tasks for "
                             "the recheck budget");
  }
  UfppDfs dfs(inst, options.bnb_recheck_max_nodes);
  dfs.run(0, 0);
  if (!dfs.budget_ok) {
    return CheckResult::fail("ufpp_bnb rung unverifiable: recheck node budget "
                             "exhausted");
  }
  if (dfs.best != static_cast<Int128>(claimed)) {
    return CheckResult::fail("ufpp_bnb rung does not match the recomputed "
                             "UFPP optimum");
  }
  return CheckResult::ok();
}

// ---------------------------------------------------------------------------
// Shared tail: total_weight rung, UB-vs-weight sanity, and the ratio claim.

CheckResult recheck_total_weight(const std::vector<TaskView>& tasks,
                                 Weight claimed) {
  Int128 total = 0;
  for (const TaskView& t : tasks) {
    if (!add128(total, t.weight, &total)) {
      return CheckResult::fail("total weight overflows");
    }
  }
  if (total != static_cast<Int128>(claimed)) {
    return CheckResult::fail("total_weight rung does not match the sum of "
                             "task weights");
  }
  return CheckResult::ok();
}

CheckResult check_ratio_claim(const Certificate& cert, Weight weight) {
  if (cert.ub.value < weight) {
    return CheckResult::fail("upper bound is below the solution weight");
  }
  if (cert.alpha_num < 0 || cert.alpha_den < 0 ||
      (cert.alpha_num == 0 && cert.alpha_den == 0)) {
    return CheckResult::fail("malformed ratio claim");
  }
  const Int128 lhs = static_cast<Int128>(weight) * cert.alpha_num;
  const Int128 rhs = static_cast<Int128>(cert.ub.value) * cert.alpha_den;
  if (lhs < rhs) {
    return CheckResult::fail("ratio claim not supported: w(S) * alpha_num < "
                             "UB * alpha_den");
  }
  return CheckResult::ok();
}

CheckResult recheck_weight(const std::vector<TaskView>& tasks,
                           const std::vector<TaskId>& selected,
                           Weight claimed) {
  Int128 total = 0;
  for (TaskId j : selected) {
    if (!add128(total, tasks[static_cast<std::size_t>(j)].weight, &total)) {
      return CheckResult::fail("solution weight overflows");
    }
  }
  if (total != static_cast<Int128>(claimed)) {
    return CheckResult::fail("recorded solution weight does not match the "
                             "recomputed weight");
  }
  return CheckResult::ok();
}

}  // namespace

CheckResult check_certificate(const PathInstance& inst, const SapSolution& sol,
                              const Certificate& cert,
                              const CheckOptions& options) {
  if (cert.kind != Certificate::Kind::kPath) {
    return CheckResult::fail("certificate kind is not 'path'");
  }
  if (CheckResult r = check_path_feasibility(inst, sol); !r) return r;

  std::vector<TaskView> tasks(inst.num_tasks());
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    const Task& t = inst.task(static_cast<TaskId>(j));
    tasks[j] = {t.demand, t.weight};
  }
  std::vector<TaskId> selected;
  selected.reserve(sol.placements.size());
  for (const Placement& p : sol.placements) selected.push_back(p.task);
  if (CheckResult r = recheck_weight(tasks, selected, cert.solution_weight); !r)
    return r;

  switch (cert.ub.rung) {
    case UbRung::kExactDp: {
      if (CheckResult r = recheck_exact_dp(inst, cert.ub.value, options); !r)
        return r;
      break;
    }
    case UbRung::kUfppBnb: {
      if (CheckResult r = recheck_ufpp_bnb(inst, cert.ub.value, options); !r)
        return r;
      break;
    }
    case UbRung::kLpDual: {
      std::vector<Int128> task_price(inst.num_tasks(), 0);
      if (cert.ub.dual.edge_price.size() == inst.num_edges()) {
        for (std::size_t j = 0; j < tasks.size(); ++j) {
          const Task& t = inst.task(static_cast<TaskId>(j));
          Int128 sum = 0;
          for (EdgeId e = t.first; e <= t.last; ++e) {
            sum += cert.ub.dual.edge_price[static_cast<std::size_t>(e)];
          }
          task_price[j] = sum;
        }
      }
      if (CheckResult r = recheck_dual_bound(inst.capacities(), cert.ub.dual,
                                             task_price, tasks, cert.ub.value);
          !r)
        return r;
      break;
    }
    case UbRung::kTotalWeight: {
      if (CheckResult r = recheck_total_weight(tasks, cert.ub.value); !r)
        return r;
      break;
    }
    default:
      return CheckResult::fail("unknown upper-bound rung");
  }

  return check_ratio_claim(cert, cert.solution_weight);
}

CheckResult check_certificate(const RingInstance& inst,
                              const RingSapSolution& sol,
                              const Certificate& cert,
                              const CheckOptions& /*options*/) {
  if (cert.kind != Certificate::Kind::kRing) {
    return CheckResult::fail("certificate kind is not 'ring'");
  }
  if (CheckResult r = check_ring_feasibility(inst, sol); !r) return r;

  std::vector<TaskView> tasks(inst.num_tasks());
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    const RingTask& t = inst.task(static_cast<TaskId>(j));
    tasks[j] = {t.demand, t.weight};
  }
  std::vector<TaskId> selected;
  selected.reserve(sol.placements.size());
  for (const RingPlacement& p : sol.placements) selected.push_back(p.task);
  if (CheckResult r = recheck_weight(tasks, selected, cert.solution_weight); !r)
    return r;

  switch (cert.ub.rung) {
    case UbRung::kLpDual: {
      std::vector<Int128> task_price(inst.num_tasks(), 0);
      if (cert.ub.dual.edge_price.size() == inst.num_edges()) {
        for (std::size_t j = 0; j < tasks.size(); ++j) {
          const RingTask& t = inst.task(static_cast<TaskId>(j));
          Int128 cheapest = 0;
          for (bool clockwise : {true, false}) {
            Int128 sum = 0;
            for (EdgeId e :
                 local_ring_route(t, inst.num_edges(), clockwise)) {
              sum += cert.ub.dual.edge_price[static_cast<std::size_t>(e)];
            }
            if (clockwise || sum < cheapest) cheapest = sum;
          }
          task_price[j] = cheapest;
        }
      }
      if (CheckResult r = recheck_dual_bound(inst.capacities(), cert.ub.dual,
                                             task_price, tasks, cert.ub.value);
          !r)
        return r;
      break;
    }
    case UbRung::kTotalWeight: {
      if (CheckResult r = recheck_total_weight(tasks, cert.ub.value); !r)
        return r;
      break;
    }
    default:
      return CheckResult::fail(
          "ring certificates support only the lp_dual and total_weight rungs");
  }

  return check_ratio_claim(cert, cert.solution_weight);
}

}  // namespace sap::cert
