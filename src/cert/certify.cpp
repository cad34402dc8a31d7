#include "src/cert/certify.hpp"

#include <utility>

#include "src/model/verify.hpp"
#include "src/util/checked.hpp"
#include "src/util/telemetry.hpp"

namespace sap::cert {
namespace {

VerifyResult verify(const PathInstance& inst, const SapSolution& sol) {
  return verify_sap(inst, sol);
}

VerifyResult verify(const RingInstance& inst, const RingSapSolution& sol) {
  return verify_ring_sap(inst, sol);
}

template <typename Instance, typename Solution>
CertifyOutcome certify(const Instance& inst, const Solution& sol,
                       Certificate::Kind kind, const LadderOptions& options) {
  CertifyOutcome outcome;
  const VerifyResult feasible = verify(inst, sol);
  if (!feasible) {
    outcome.detail = "infeasible solution: " + feasible.reason;
    return outcome;
  }
  outcome.feasible = true;
  // Checked recomputation of w(S): certification refuses to claim a weight
  // that does not fit in int64.
  Weight weight = 0;
  for (const auto& p : sol.placements) {
    if (!checked_add(weight, inst.task(p.task).weight, &weight)) {
      outcome.detail = "solution weight overflows int64";
      return outcome;
    }
  }
  outcome.ladder = run_upper_bound_ladder(inst, options);
  if (!outcome.ladder.proven) {
    outcome.detail = "upper-bound ladder could not prove any bound";
    return outcome;
  }
  outcome.cert.kind = kind;
  outcome.cert.solution_weight = weight;
  outcome.cert.ub = outcome.ladder.best;
  set_alpha_from_bound(outcome.cert);
  outcome.certified = true;
  telemetry::count("cert.produced");
  return outcome;
}

}  // namespace

CertifyOutcome certify_solution(const PathInstance& inst,
                                const SapSolution& sol,
                                const LadderOptions& options) {
  return certify(inst, sol, Certificate::Kind::kPath, options);
}

CertifyOutcome certify_solution(const RingInstance& inst,
                                const RingSapSolution& sol,
                                const LadderOptions& options) {
  return certify(inst, sol, Certificate::Kind::kRing, options);
}

}  // namespace sap::cert
