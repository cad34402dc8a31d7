// Section 4: the (4+eps)-approximation for delta-small SAP instances.
//
// Algorithm Strip-Pack: partition tasks into bottleneck octaves
// J_t = { j : 2^t <= b(j) < 2^(t+1) }, compute a (2^(t-1))-packable solution
// per octave (LP-rounding, Section 4.1, or the Appendix local-ratio Strip),
// transform it into a strip-packed SAP solution (Lemma 4), lift strip t to
// [2^(t-1), 2^t), and stack.
#pragma once

#include <span>
#include <vector>

#include "src/core/params.hpp"
#include "src/model/path_instance.hpp"
#include "src/model/solution.hpp"

namespace sap {

/// Per-octave diagnostics of a Strip-Pack run (consumed by the benches).
struct StripInfo {
  int t = 0;                 ///< octave: bottlenecks in [2^t, 2^(t+1))
  std::size_t num_tasks = 0;
  Weight ufpp_weight = 0;    ///< weight of the (B/2)-packable UFPP solution
  Weight kept_weight = 0;    ///< after the strip transformation
  // sapkit-analyze: begin-allow(float-ban) -- bench/report diagnostics only;
  // nothing reads these back into the solver.
  double retention = 1.0;    ///< kept / (kept + dropped), Lemma 4 measure
  double lp_value = 0.0;     ///< LP optimum (LP backend only)
  // sapkit-analyze: end-allow(float-ban)
};

struct SmallTasksReport {
  std::vector<StripInfo> strips;
};

/// Runs Strip-Pack on `subset` (intended: the delta-small tasks). Always
/// returns a feasible SAP solution for `inst`.
[[nodiscard]] SapSolution solve_small_tasks(const PathInstance& inst,
                                            std::span<const TaskId> subset,
                                            const SolverParams& params,
                                            SmallTasksReport* report = nullptr);

}  // namespace sap
