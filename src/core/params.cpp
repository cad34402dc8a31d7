#include "src/core/params.hpp"

#include <cmath>
#include <stdexcept>

namespace sap {

// sapkit-analyze: begin-allow(float-ban) -- parameter derivation only: these
// ceil/log expressions turn eps and beta into small integer window widths
// before solving starts; no weight, height or capacity ever mixes with them.
int SolverParams::beta_q() const noexcept {
  // q = ceil(log2(1/beta)) = ceil(log2(den/num)).
  const double inv_beta =
      static_cast<double>(beta.den) / static_cast<double>(beta.num);
  return static_cast<int>(std::ceil(std::log2(inv_beta) - 1e-12));
}

int SolverParams::effective_ell() const noexcept {
  if (ell > 0) return ell;
  const int q = beta_q();
  const int derived =
      static_cast<int>(std::ceil(static_cast<double>(q) / eps - 1e-12));
  return derived < 1 ? 1 : derived;
}
// sapkit-analyze: end-allow(float-ban)

void SolverParams::validate() const {
  if (!(eps > 0.0)) {
    throw std::invalid_argument("SolverParams: eps must be positive");
  }
  if (beta.num <= 0 || beta.den <= 0 ||
      2 * beta.num >= beta.den) {  // beta in (0, 1/2)
    throw std::invalid_argument("SolverParams: beta must lie in (0, 1/2)");
  }
  if (delta.num <= 0 || delta.den <= 0) {
    throw std::invalid_argument("SolverParams: delta must be positive");
  }
  // delta < 1 - 2*beta  <=>  delta.num * beta.den < (beta.den - 2*beta.num)
  //                          * delta.den
  const Int128 lhs = static_cast<Int128>(delta.num) * beta.den;
  const Int128 rhs =
      static_cast<Int128>(beta.den - 2 * beta.num) * delta.den;
  if (lhs >= rhs) {
    throw std::invalid_argument(
        "SolverParams: delta must be below 1 - 2*beta (Theorem 2)");
  }
  if (k_large < 2) {
    throw std::invalid_argument(
        "SolverParams: k_large must be >= 2 (1/1-large is vacuous)");
  }
  if (elevator_mode < 0 || elevator_mode > 1) {
    throw std::invalid_argument("SolverParams: unknown elevator_mode");
  }
}

}  // namespace sap
