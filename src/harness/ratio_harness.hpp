// Approximation-ratio measurement: bound OPT_SAP from above via the
// certification subsystem's UpperBoundLadder (src/cert/ladder.hpp) and
// compare an algorithm's solution weight against it. The ladder owns the
// bound-selection policy (exact oracle when tractable, certified LP dual
// otherwise); this harness only picks its measurement defaults and forms
// ratios.
#pragma once

#include "src/cert/ladder.hpp"
#include "src/model/path_instance.hpp"
#include "src/model/ring_instance.hpp"
#include "src/model/solution.hpp"

namespace sap {

/// The ladder ratio measurements run by default: the certification ladder
/// without the exact UFPP rung, since measurement loops favour throughput.
[[nodiscard]] cert::LadderOptions measurement_ladder();

struct RatioMeasurement {
  Weight algo_weight = 0;
  double bound = 0.0;
  bool bound_exact = false;  ///< true when bound == OPT_SAP (exact_dp fired)
  cert::UbRung bound_rung = cert::UbRung::kTotalWeight;
  /// bound / algo_weight; 1.0 when both are zero; +inf when only the
  /// algorithm is zero.
  double ratio = 1.0;
};

/// Upper-bounds OPT with the first ladder rung that proves a bound and
/// forms the ratio. Ring bounds come from the two-route LP dual (or the
/// trivial fallback), so measured ring ratios include the LP integrality gap
/// on top of the algorithm's loss.
[[nodiscard]] RatioMeasurement measure_ratio(
    const PathInstance& inst, const SapSolution& sol,
    const cert::LadderOptions& options = measurement_ladder());
[[nodiscard]] RatioMeasurement measure_ratio(
    const RingInstance& inst, const RingSapSolution& sol,
    const cert::LadderOptions& options = measurement_ladder());

}  // namespace sap
