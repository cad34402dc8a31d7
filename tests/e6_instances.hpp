// The E6 experiment grid shared by the tests: bench_full_solver's and
// sapbench's path instances with 12 edges, capacities 8..48 and mixed
// demand, one deterministic seed per (task count, index) cell entry.
#pragma once

#include <cstddef>

#include "src/gen/generators.hpp"
#include "src/harness/batch_runner.hpp"
#include "src/model/path_instance.hpp"
#include "src/util/rng.hpp"

namespace sap {

/// E6 instance `index` (0-based) of the (profile, n tasks) cell.
inline PathInstance e6_instance(CapacityProfile profile, std::size_t n,
                                std::size_t index = 0) {
  Rng rng(batch_case_seed(5000 + n, index));
  PathGenOptions gen;
  gen.num_edges = 12;
  gen.num_tasks = n;
  gen.profile = profile;
  gen.min_capacity = 8;
  gen.max_capacity = 48;
  gen.demand = DemandClass::kMixed;
  return generate_path_instance(gen, rng);
}

}  // namespace sap
