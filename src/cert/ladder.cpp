#include "src/cert/ladder.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/lp/simplex.hpp"
#include "src/util/telemetry.hpp"

namespace sap::cert {
namespace {

// sapkit-analyze: allow(determinism) -- the monotonic clock feeds per-rung
// wall-time telemetry only; ladder bounds and rung order never read it.
using Clock = std::chrono::steady_clock;

// sapkit-analyze: begin-allow(float-ban) -- wall-time measurement feeds the
// per-rung telemetry only; it never touches a bound or a solver decision.
double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
// sapkit-analyze: end-allow(float-ban)

/// Fixed-point denominator for the repaired dual prices.
constexpr std::int64_t kDualScale = std::int64_t{1} << 20;

bool checked_add(Int128 a, Int128 b, Int128* out) {
  return !__builtin_add_overflow(a, b, out);
}

bool checked_mul(Int128 a, Int128 b, Int128* out) {
  return !__builtin_mul_overflow(a, b, out);
}

/// One route of a task: `length` consecutive edges from `first`, wrapping
/// past the last edge on a ring (never on a path).
struct Arc {
  std::size_t first = 0;
  std::size_t length = 0;
};

/// Calls `f(e)` for every edge of `arc` on a topology of `m` edges.
template <typename F>
void for_each_edge(Arc arc, std::size_t m, F&& f) {
  std::size_t e = arc.first;
  for (std::size_t k = 0; k < arc.length; ++k) {
    f(e);
    if (++e == m) e = 0;
  }
}

/// One task as the UFPP LP relaxation sees it: its demand, its weight and
/// its candidate routes — one on a path; clockwise, then counter-clockwise
/// on a ring. O(1) space per task, whatever its span.
struct RoutedTask {
  Value demand = 0;
  Weight weight = 0;
  std::array<Arc, 2> route_store{};
  std::size_t num_routes = 0;

  [[nodiscard]] std::span<const Arc> routes() const {
    return std::span<const Arc>(route_store).first(num_routes);
  }
};

std::vector<RoutedTask> routed_tasks(const PathInstance& inst) {
  std::vector<RoutedTask> out(inst.num_tasks());
  for (std::size_t j = 0; j < out.size(); ++j) {
    const Task& t = inst.task(static_cast<TaskId>(j));
    const Arc span{static_cast<std::size_t>(t.first),
                   static_cast<std::size_t>(t.last - t.first) + 1};
    out[j] = {t.demand, t.weight, {span, Arc{}}, 1};
  }
  return out;
}

std::vector<RoutedTask> routed_tasks(const RingInstance& inst) {
  const std::size_t m = inst.num_edges();
  std::vector<RoutedTask> out(inst.num_tasks());
  for (std::size_t j = 0; j < out.size(); ++j) {
    const RingTask& t = inst.task(static_cast<TaskId>(j));
    const auto start = static_cast<std::size_t>(t.start);
    const auto end = static_cast<std::size_t>(t.end);
    // Clockwise walks start -> end, counter-clockwise end -> start; both in
    // increasing edge order, as RingInstance::route_edges lists them.
    const Arc clockwise{start, (end + m - start) % m};
    const Arc counter{end, (start + m - end) % m};
    out[j] = {t.demand, t.weight, {clockwise, counter}, 2};
  }
  return out;
}

/// Rounds one simplex-suggested price to the scaled integral grid. Any
/// non-negative result keeps the bound valid; the guard only rejects values
/// too large to represent.
// sapkit-analyze: begin-allow(float-ban) -- the declared LP-dual-repair region:
// floating-point simplex output is a *suggestion* only; every repaired price
// is re-evaluated exactly in Int128 (evaluate_dual_bound) before any bound
// is emitted, so float error can weaken the bound but never falsify it.
bool repair_price(double y, std::int64_t* out) {
  if (!std::isfinite(y)) return false;
  const double scaled = std::max(0.0, y) * static_cast<double>(kDualScale);
  if (scaled >= 9.0e18) return false;
  *out = static_cast<std::int64_t>(std::llround(scaled));
  return true;
}
// sapkit-analyze: end-allow(float-ban)

/// Exact evaluation of the repaired dual bound:
/// UB = floor((sum_e c_e*Y_e + sum_j z_j) / S) with
/// z_j = max(0, w_j*S - d_j * price_j), where price_j is task j's cheapest
/// route. Returns false on 128-bit overflow.
bool evaluate_dual_bound(std::span<const Value> capacities,
                         std::span<const std::int64_t> prices,
                         std::span<const RoutedTask> tasks,
                         std::span<const Int128> task_price, Weight* out) {
  Int128 total = 0;
  for (std::size_t e = 0; e < capacities.size(); ++e) {
    Int128 term = 0;
    if (!checked_mul(capacities[e], prices[e], &term)) return false;
    if (!checked_add(total, term, &total)) return false;
  }
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    Int128 ws = 0;
    if (!checked_mul(tasks[j].weight, kDualScale, &ws)) return false;
    Int128 dp = 0;
    if (!checked_mul(tasks[j].demand, task_price[j], &dp)) return false;
    Int128 slack = ws - dp;  // subtraction of in-range products cannot wrap
    if (slack < 0) slack = 0;
    if (!checked_add(total, slack, &total)) return false;
  }
  const Int128 ub = total / kDualScale;  // total >= 0, scale > 0: floor
  if (ub > std::numeric_limits<Weight>::max()) return false;
  *out = static_cast<Weight>(ub);
  return true;
}

/// Attempts the lp_dual rung: solves the dual of the UFPP LP relaxation
/// (min c.y + sum z s.t. d_j sum_{e in R} y_e + z_j >= w_j for every route R
/// of task j, y,z >= 0) with the primal simplex — one row per (task, route),
/// in task order — then repairs the prices exactly.
bool try_lp_dual(std::span<const Value> capacities,
                 std::span<const RoutedTask> tasks, Deadline deadline,
                 UpperBoundCertificate* out, bool* timed_out) {
  const std::size_t m = capacities.size();
  const std::size_t n = tasks.size();
  if (n == 0) return false;
  DeadlineGate gate(deadline);

  // sapkit-analyze: begin-allow(float-ban) -- LP-dual-repair region: the dual
  // LP is posed in doubles for the simplex, but its solution is only ever a
  // hint; the emitted bound comes from the exact Int128 re-evaluation below.
  LpProblem dual;
  dual.objective.assign(m + n, 0.0);
  for (std::size_t e = 0; e < m; ++e) {
    dual.objective[e] = -static_cast<double>(capacities[e]);
  }
  for (std::size_t j = 0; j < n; ++j) dual.objective[m + j] = -1.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (gate.expired()) {
      *timed_out = true;
      return false;
    }
    for (const Arc& route : tasks[j].routes()) {
      LpConstraint row;
      row.coeffs.assign(m + n, 0.0);
      for_each_edge(route, m, [&](std::size_t e) {
        row.coeffs[e] = static_cast<double>(tasks[j].demand);
      });
      row.coeffs[m + j] = 1.0;
      row.relation = LpRelation::kGreaterEqual;
      row.rhs = static_cast<double>(tasks[j].weight);
      dual.constraints.push_back(std::move(row));
    }
  }

  const LpSolution lp = solve_lp(dual, 0, deadline);
  // sapkit-analyze: end-allow(float-ban)
  if (lp.status == LpStatus::kTimeout) {
    *timed_out = true;
    return false;
  }
  if (lp.status != LpStatus::kOptimal) return false;

  DualWitness witness;
  witness.scale = kDualScale;
  witness.edge_price.resize(m);
  for (std::size_t e = 0; e < m; ++e) {
    if (!repair_price(lp.x[e], &witness.edge_price[e])) return false;
  }

  std::vector<Int128> task_price(n, 0);
  for (std::size_t j = 0; j < n; ++j) {
    if (gate.expired()) {
      *timed_out = true;
      return false;
    }
    const std::span<const Arc> routes = tasks[j].routes();
    for (std::size_t r = 0; r < routes.size(); ++r) {
      Int128 sum = 0;
      for_each_edge(routes[r], m,
                    [&](std::size_t e) { sum += witness.edge_price[e]; });
      if (r == 0 || sum < task_price[j]) task_price[j] = sum;
    }
  }

  Weight ub = 0;
  if (!evaluate_dual_bound(capacities, witness.edge_price, tasks, task_price,
                           &ub)) {
    return false;
  }
  out->value = ub;
  out->dual = std::move(witness);
  return true;
}

/// One ladder run: the attempts so far and sum w, which caps every bound the
/// run selects.
class LadderRun {
 public:
  explicit LadderRun(std::span<const RoutedTask> tasks) {
    for (const RoutedTask& t : tasks) {
      if (__builtin_add_overflow(sum_w_, t.weight, &sum_w_)) {
        sum_ok_ = false;
        break;
      }
    }
  }

  /// One rung: when applicable, times `prove` (which returns whether it
  /// proved `*bound` and flags a deadline cut in `*timed_out`), records the
  /// attempt, and selects the bound unless it is looser than sum w. Returns
  /// true once the ladder has its answer.
  template <typename Prove>
  bool attempt(UbRung rung, bool applicable, Prove&& prove) {
    LadderRungAttempt attempt{.rung = rung, .applicable = applicable};
    UpperBoundCertificate bound;
    bound.rung = rung;
    if (applicable) {
      const auto start = Clock::now();
      attempt.proved = prove(&bound, &attempt.timed_out);
      attempt.seconds = seconds_since(start);
      if (attempt.proved) attempt.value = bound.value;
    }
    result_.attempts.push_back(attempt);
    if (!attempt.proved || (sum_ok_ && bound.value > sum_w_)) return false;
    result_.proven = true;
    result_.best = std::move(bound);
    telemetry::count(std::string("cert.ladder.") + ub_rung_name(rung));
    return true;
  }

  /// The rungs both topologies share, in order: lp_dual over the task
  /// routes, then total_weight, the unconditional fallback unless sum w
  /// itself overflows.
  LadderResult finish(std::span<const Value> capacities,
                      std::span<const RoutedTask> tasks,
                      const LadderOptions& options) && {
    const bool lp_proved = attempt(
        UbRung::kLpDual, options.try_lp_dual,
        [&](UpperBoundCertificate* bound, bool* timed_out) {
          return try_lp_dual(capacities, tasks, options.deadline, bound,
                             timed_out);
        });
    if (!lp_proved) {
      attempt(UbRung::kTotalWeight, true, [&](UpperBoundCertificate* bound,
                                              bool*) {
        bound->value = sum_w_;
        return sum_ok_;
      });
    }
    return std::move(result_);
  }

  LadderResult result() && { return std::move(result_); }

 private:
  LadderResult result_;
  Weight sum_w_ = 0;
  bool sum_ok_ = true;
};

}  // namespace

LadderResult run_upper_bound_ladder(const PathInstance& inst,
                                    const LadderOptions& options) {
  const std::vector<RoutedTask> tasks = routed_tasks(inst);
  LadderRun run(tasks);

  const bool dp_applicable =
      options.try_exact_dp && inst.num_tasks() <= options.exact_dp_max_tasks &&
      (inst.num_edges() == 0 ||
       inst.max_capacity() <= options.exact_dp_max_capacity);
  if (run.attempt(UbRung::kExactDp, dp_applicable,
                  [&](UpperBoundCertificate* bound, bool* timed_out) {
                    SapExactOptions dp_options = options.dp;
                    dp_options.deadline =
                        dp_options.deadline.min(options.deadline);
                    const SapExactResult dp =
                        sap_exact_profile_dp(inst, dp_options);
                    *timed_out = dp.timed_out;
                    bound->value = dp.weight;
                    return dp.proven_optimal;
                  })) {
    return std::move(run).result();
  }

  // Exact UFPP optimum (>= OPT_SAP).
  const bool bnb_applicable =
      options.try_ufpp_bnb && inst.num_tasks() <= options.bnb_max_tasks;
  if (run.attempt(UbRung::kUfppBnb, bnb_applicable,
                  [&](UpperBoundCertificate* bound, bool* timed_out) {
                    UfppExactOptions bnb_options = options.bnb;
                    bnb_options.deadline =
                        bnb_options.deadline.min(options.deadline);
                    const UfppExactResult bnb = ufpp_exact(inst, bnb_options);
                    *timed_out = bnb.timed_out;
                    bound->value = bnb.weight;
                    return bnb.proven_optimal;
                  })) {
    return std::move(run).result();
  }

  return std::move(run).finish(inst.capacities(), tasks, options);
}

LadderResult run_upper_bound_ladder(const RingInstance& inst,
                                    const LadderOptions& options) {
  const std::vector<RoutedTask> tasks = routed_tasks(inst);
  return LadderRun(tasks).finish(inst.capacities(), tasks, options);
}

}  // namespace sap::cert
