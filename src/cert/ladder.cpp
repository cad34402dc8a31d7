#include "src/cert/ladder.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
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

const char* rung_counter_name(UbRung rung) {
  switch (rung) {
    case UbRung::kExactDp:
      return "cert.ladder.exact_dp";
    case UbRung::kUfppBnb:
      return "cert.ladder.ufpp_bnb";
    case UbRung::kLpDual:
      return "cert.ladder.lp_dual";
    case UbRung::kTotalWeight:
      return "cert.ladder.total_weight";
  }
  return "cert.ladder.total_weight";
}

bool checked_add(Int128 a, Int128 b, Int128* out) {
  return !__builtin_add_overflow(a, b, out);
}

bool checked_mul(Int128 a, Int128 b, Int128* out) {
  return !__builtin_mul_overflow(a, b, out);
}

/// Sum of all task weights, or nullopt-style failure via the bool return.
bool checked_total_weight(std::span<const Weight> weights, Weight* out) {
  Weight total = 0;
  for (Weight w : weights) {
    if (__builtin_add_overflow(total, w, &total)) return false;
  }
  *out = total;
  return true;
}

/// Rounds one simplex-suggested price to the scaled integral grid. Any
/// non-negative result keeps the bound valid; the guard only rejects values
/// too large to represent.
// sapkit-analyze: begin-allow(float-ban) -- the declared LP-dual-repair region:
// floating-point simplex output is a *suggestion* only; every repaired price
// is re-evaluated exactly in Int128 (evaluate_dual_bound) before any bound
// is emitted, so float error can weaken the bound but never falsify it.
bool repair_price(double y, std::int64_t scale, std::int64_t* out) {
  if (!std::isfinite(y)) return false;
  const double scaled = std::max(0.0, y) * static_cast<double>(scale);
  if (scaled >= 9.0e18) return false;
  *out = static_cast<std::int64_t>(std::llround(scaled));
  return true;
}
// sapkit-analyze: end-allow(float-ban)

/// Exact evaluation of the repaired dual bound shared by path and ring:
/// UB = floor((sum_e c_e*Y_e + sum_j z_j) / S) with
/// z_j = max(0, w_j*S - d_j * price_j) and price_j supplied per task
/// (the route price sum — for rings, the cheaper direction). Returns false
/// on 128-bit overflow.
bool evaluate_dual_bound(std::span<const Value> capacities,
                         std::span<const std::int64_t> prices,
                         std::span<const Int128> task_price,
                         std::span<const Value> demands,
                         std::span<const Weight> weights, std::int64_t scale,
                         Weight* out) {
  Int128 total = 0;
  for (std::size_t e = 0; e < capacities.size(); ++e) {
    Int128 term = 0;
    if (!checked_mul(capacities[e], prices[e], &term)) return false;
    if (!checked_add(total, term, &total)) return false;
  }
  for (std::size_t j = 0; j < weights.size(); ++j) {
    Int128 ws = 0;
    if (!checked_mul(weights[j], scale, &ws)) return false;
    Int128 dp = 0;
    if (!checked_mul(demands[j], task_price[j], &dp)) return false;
    Int128 slack = ws - dp;  // subtraction of in-range products cannot wrap
    if (slack < 0) slack = 0;
    if (!checked_add(total, slack, &total)) return false;
  }
  const Int128 ub = total / scale;  // total >= 0, scale > 0: floor
  if (ub > std::numeric_limits<Weight>::max()) return false;
  *out = static_cast<Weight>(ub);
  return true;
}

/// Attempts the lp_dual rung for a path instance: solves the dual of the
/// UFPP LP relaxation (min c.y + sum z s.t. d_j sum_{e in I_j} y_e + z_j >=
/// w_j, y,z >= 0) with the primal simplex, then repairs the prices exactly.
bool try_path_lp_dual(const PathInstance& inst, const LadderOptions& options,
                      UpperBoundCertificate* out, bool* timed_out) {
  const std::size_t m = inst.num_edges();
  const std::size_t n = inst.num_tasks();
  if (n == 0 || options.dual_scale <= 0) return false;
  DeadlineGate gate(options.deadline);

  // sapkit-analyze: begin-allow(float-ban) -- LP-dual-repair region: the dual
  // LP is posed in doubles for the simplex, but its solution is only ever a
  // hint; the emitted bound comes from the exact Int128 re-evaluation below.
  LpProblem dual;
  dual.objective.assign(m + n, 0.0);
  for (std::size_t e = 0; e < m; ++e) {
    dual.objective[e] = -static_cast<double>(inst.capacity(
        static_cast<EdgeId>(e)));
  }
  for (std::size_t j = 0; j < n; ++j) dual.objective[m + j] = -1.0;
  dual.constraints.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (gate.expired()) {
      *timed_out = true;
      return false;
    }
    const Task& t = inst.task(static_cast<TaskId>(j));
    LpConstraint row;
    row.coeffs.assign(m + n, 0.0);
    for (EdgeId e = t.first; e <= t.last; ++e) {
      row.coeffs[static_cast<std::size_t>(e)] = static_cast<double>(t.demand);
    }
    row.coeffs[m + j] = 1.0;
    row.relation = LpRelation::kGreaterEqual;
    row.rhs = static_cast<double>(t.weight);
    dual.constraints.push_back(std::move(row));
  }

  const LpSolution lp = solve_lp(dual, 0, options.deadline);
  // sapkit-analyze: end-allow(float-ban)
  if (lp.status == LpStatus::kTimeout) {
    *timed_out = true;
    return false;
  }
  if (lp.status != LpStatus::kOptimal) return false;

  DualWitness witness;
  witness.scale = options.dual_scale;
  witness.edge_price.resize(m);
  for (std::size_t e = 0; e < m; ++e) {
    if (!repair_price(lp.x[e], witness.scale, &witness.edge_price[e])) {
      return false;
    }
  }

  std::vector<Int128> task_price(n, 0);
  std::vector<Value> demands(n);
  std::vector<Weight> weights(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (gate.expired()) {
      *timed_out = true;
      return false;
    }
    const Task& t = inst.task(static_cast<TaskId>(j));
    Int128 sum = 0;
    for (EdgeId e = t.first; e <= t.last; ++e) {
      sum += witness.edge_price[static_cast<std::size_t>(e)];
    }
    task_price[j] = sum;
    demands[j] = t.demand;
    weights[j] = t.weight;
  }

  Weight ub = 0;
  if (!evaluate_dual_bound(inst.capacities(), witness.edge_price, task_price,
                           demands, weights, witness.scale, &ub)) {
    return false;
  }
  out->rung = UbRung::kLpDual;
  out->value = ub;
  out->dual = std::move(witness);
  return true;
}

/// The ring analogue: one dual row per (task, direction); the exact slack
/// uses the cheaper direction, matching the verifier in check.cpp.
bool try_ring_lp_dual(const RingInstance& inst, const LadderOptions& options,
                      UpperBoundCertificate* out, bool* timed_out) {
  const std::size_t m = inst.num_edges();
  const std::size_t n = inst.num_tasks();
  if (n == 0 || options.dual_scale <= 0) return false;
  DeadlineGate gate(options.deadline);

  // sapkit-analyze: begin-allow(float-ban) -- LP-dual-repair region: the dual
  // LP is posed in doubles for the simplex, but its solution is only ever a
  // hint; the emitted bound comes from the exact Int128 re-evaluation below.
  LpProblem dual;
  dual.objective.assign(m + n, 0.0);
  for (std::size_t e = 0; e < m; ++e) {
    dual.objective[e] = -static_cast<double>(inst.capacity(
        static_cast<EdgeId>(e)));
  }
  for (std::size_t j = 0; j < n; ++j) dual.objective[m + j] = -1.0;
  dual.constraints.reserve(2 * n);
  for (std::size_t j = 0; j < n; ++j) {
    if (gate.expired()) {
      *timed_out = true;
      return false;
    }
    const RingTask& t = inst.task(static_cast<TaskId>(j));
    for (bool clockwise : {true, false}) {
      LpConstraint row;
      row.coeffs.assign(m + n, 0.0);
      for (EdgeId e : inst.route_edges(static_cast<TaskId>(j), clockwise)) {
        row.coeffs[static_cast<std::size_t>(e)] =
            static_cast<double>(t.demand);
      }
      row.coeffs[m + j] = 1.0;
      row.relation = LpRelation::kGreaterEqual;
      row.rhs = static_cast<double>(t.weight);
      dual.constraints.push_back(std::move(row));
    }
  }

  const LpSolution lp = solve_lp(dual, 0, options.deadline);
  // sapkit-analyze: end-allow(float-ban)
  if (lp.status == LpStatus::kTimeout) {
    *timed_out = true;
    return false;
  }
  if (lp.status != LpStatus::kOptimal) return false;

  DualWitness witness;
  witness.scale = options.dual_scale;
  witness.edge_price.resize(m);
  for (std::size_t e = 0; e < m; ++e) {
    if (!repair_price(lp.x[e], witness.scale, &witness.edge_price[e])) {
      return false;
    }
  }

  std::vector<Int128> task_price(n, 0);
  std::vector<Value> demands(n);
  std::vector<Weight> weights(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (gate.expired()) {
      *timed_out = true;
      return false;
    }
    const RingTask& t = inst.task(static_cast<TaskId>(j));
    Int128 cheapest = 0;
    for (bool clockwise : {true, false}) {
      Int128 sum = 0;
      for (EdgeId e : inst.route_edges(static_cast<TaskId>(j), clockwise)) {
        sum += witness.edge_price[static_cast<std::size_t>(e)];
      }
      if (clockwise || sum < cheapest) cheapest = sum;
    }
    task_price[j] = cheapest;
    demands[j] = t.demand;
    weights[j] = t.weight;
  }

  Weight ub = 0;
  if (!evaluate_dual_bound(inst.capacities(), witness.edge_price, task_price,
                           demands, weights, witness.scale, &ub)) {
    return false;
  }
  out->rung = UbRung::kLpDual;
  out->value = ub;
  out->dual = std::move(witness);
  return true;
}

/// Selects `candidate` as the ladder's answer and stamps telemetry.
void select(LadderResult* result, UpperBoundCertificate candidate) {
  result->proven = true;
  result->best = std::move(candidate);
  telemetry::count(rung_counter_name(result->best.rung));
}

UpperBoundCertificate plain_bound(UbRung rung, Weight value) {
  UpperBoundCertificate bound;
  bound.rung = rung;
  bound.value = value;
  return bound;
}

}  // namespace

LadderResult run_upper_bound_ladder(const PathInstance& inst,
                                    const LadderOptions& options) {
  LadderResult result;

  Weight sum_w = 0;
  std::vector<Weight> weights(inst.num_tasks());
  for (std::size_t j = 0; j < weights.size(); ++j) {
    weights[j] = inst.task(static_cast<TaskId>(j)).weight;
  }
  const bool sum_ok = checked_total_weight(weights, &sum_w);

  // Rung 1: exact SAP optimum by profile DP.
  {
    LadderRungAttempt attempt{.rung = UbRung::kExactDp};
    const bool applicable =
        options.try_exact_dp && inst.num_tasks() <= options.exact_dp_max_tasks &&
        (inst.num_edges() == 0 ||
         inst.max_capacity() <= options.exact_dp_max_capacity);
    if (applicable) {
      attempt.applicable = true;
      SapExactOptions dp_options = options.dp;
      dp_options.deadline = dp_options.deadline.min(options.deadline);
      const auto start = Clock::now();
      const SapExactResult dp = sap_exact_profile_dp(inst, dp_options);
      attempt.seconds = seconds_since(start);
      attempt.timed_out = dp.timed_out;
      if (dp.proven_optimal) {
        attempt.proved = true;
        attempt.value = dp.weight;
      }
    }
    result.attempts.push_back(attempt);
    if (attempt.proved) {
      select(&result, plain_bound(UbRung::kExactDp, attempt.value));
      return result;
    }
  }

  // Rung 2: exact UFPP optimum (>= OPT_SAP).
  {
    LadderRungAttempt attempt{.rung = UbRung::kUfppBnb};
    if (options.try_ufpp_bnb && inst.num_tasks() <= options.bnb_max_tasks) {
      attempt.applicable = true;
      UfppExactOptions bnb_options = options.bnb;
      bnb_options.deadline = bnb_options.deadline.min(options.deadline);
      const auto start = Clock::now();
      const UfppExactResult bnb = ufpp_exact(inst, bnb_options);
      attempt.seconds = seconds_since(start);
      attempt.timed_out = bnb.timed_out;
      if (bnb.proven_optimal) {
        attempt.proved = true;
        attempt.value = bnb.weight;
      }
    }
    result.attempts.push_back(attempt);
    if (attempt.proved) {
      select(&result, plain_bound(UbRung::kUfppBnb, attempt.value));
      return result;
    }
  }

  // Rung 3: rational-repaired LP dual. Skipped in favour of the fallback if
  // the repaired bound is looser than sum w.
  {
    LadderRungAttempt attempt{.rung = UbRung::kLpDual};
    UpperBoundCertificate candidate;
    if (options.try_lp_dual) {
      attempt.applicable = true;
      const auto start = Clock::now();
      const bool ok =
          try_path_lp_dual(inst, options, &candidate, &attempt.timed_out);
      attempt.seconds = seconds_since(start);
      if (ok) {
        attempt.proved = true;
        attempt.value = candidate.value;
      }
    }
    result.attempts.push_back(attempt);
    if (attempt.proved && !(sum_ok && candidate.value > sum_w)) {
      select(&result, std::move(candidate));
      return result;
    }
  }

  // Rung 4: the unconditional fallback, unless sum w itself overflows.
  {
    LadderRungAttempt attempt{.rung = UbRung::kTotalWeight,
                              .applicable = true};
    if (sum_ok) {
      attempt.proved = true;
      attempt.value = sum_w;
    }
    result.attempts.push_back(attempt);
    if (attempt.proved) {
      select(&result, plain_bound(UbRung::kTotalWeight, sum_w));
    }
  }
  return result;
}

LadderResult run_ring_upper_bound_ladder(const RingInstance& inst,
                                         const LadderOptions& options) {
  LadderResult result;

  Weight sum_w = 0;
  std::vector<Weight> weights(inst.num_tasks());
  for (std::size_t j = 0; j < weights.size(); ++j) {
    weights[j] = inst.task(static_cast<TaskId>(j)).weight;
  }
  const bool sum_ok = checked_total_weight(weights, &sum_w);

  {
    LadderRungAttempt attempt{.rung = UbRung::kLpDual};
    UpperBoundCertificate candidate;
    if (options.try_lp_dual) {
      attempt.applicable = true;
      const auto start = Clock::now();
      const bool ok =
          try_ring_lp_dual(inst, options, &candidate, &attempt.timed_out);
      attempt.seconds = seconds_since(start);
      if (ok) {
        attempt.proved = true;
        attempt.value = candidate.value;
      }
    }
    result.attempts.push_back(attempt);
    if (attempt.proved && !(sum_ok && candidate.value > sum_w)) {
      select(&result, std::move(candidate));
      return result;
    }
  }

  {
    LadderRungAttempt attempt{.rung = UbRung::kTotalWeight,
                              .applicable = true};
    if (sum_ok) {
      attempt.proved = true;
      attempt.value = sum_w;
    }
    result.attempts.push_back(attempt);
    if (attempt.proved) {
      select(&result, plain_bound(UbRung::kTotalWeight, sum_w));
    }
  }
  return result;
}

}  // namespace sap::cert
