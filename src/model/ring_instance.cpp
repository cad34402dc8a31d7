#include "src/model/ring_instance.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
// sapkit-analyze: allow(determinism) -- duplicate-id membership test only; the
// set is queried, never iterated, so its order cannot reach any output.
#include <unordered_set>

#include "src/util/checked.hpp"

namespace sap {

RingInstance::RingInstance(std::vector<Value> capacities,
                           std::vector<RingTask> tasks)
    : capacities_(std::move(capacities)), tasks_(std::move(tasks)) {
  if (capacities_.size() < 3) {
    throw std::invalid_argument("RingInstance: ring needs >= 3 edges");
  }
  // Vertex/edge indices are int; reject sizes the casts below would narrow.
  if (capacities_.size() >
      static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    throw std::invalid_argument("RingInstance: too many edges for int ids");
  }
  for (Value c : capacities_) {
    if (c <= 0) {
      throw std::invalid_argument("RingInstance: capacities must be positive");
    }
    if (c > kMaxExactCapacity) {
      throw std::invalid_argument(
          "RingInstance: capacity exceeds 2^62 (height arithmetic would not "
          "be exact in int64)");
    }
  }
  const auto m = static_cast<int>(capacities_.size());
  // Checked totals, mirroring PathInstance: a successful construction proves
  // that every subset sum of demands or weights fits in int64.
  Value demand_total = 0;
  Weight weight_total = 0;
  for (std::size_t j = 0; j < tasks_.size(); ++j) {
    const RingTask& t = tasks_[j];
    if (t.start < 0 || t.start >= m || t.end < 0 || t.end >= m ||
        t.start == t.end) {
      throw std::invalid_argument("RingInstance: task " + std::to_string(j) +
                                  " has invalid endpoints");
    }
    if (t.demand <= 0 || t.weight < 0) {
      throw std::invalid_argument("RingInstance: task " + std::to_string(j) +
                                  " has invalid demand/weight");
    }
    if (!checked_add(demand_total, t.demand, &demand_total) ||
        !checked_add(weight_total, t.weight, &weight_total)) {
      throw std::invalid_argument(
          "RingInstance: total demand or weight overflows int64 (instance "
          "too large for exact arithmetic)");
    }
  }
}

std::vector<EdgeId> RingInstance::route_edges(TaskId j, bool clockwise) const {
  const RingTask& t = task(j);
  const auto m = static_cast<int>(capacities_.size());
  std::vector<EdgeId> edges;
  int v = clockwise ? t.start : t.end;
  const int stop = clockwise ? t.end : t.start;
  while (v != stop) {
    edges.push_back(static_cast<EdgeId>(v));
    v = (v + 1) % m;
  }
  return edges;
}

Value RingInstance::route_bottleneck(TaskId j, bool clockwise) const {
  Value best = std::numeric_limits<Value>::max();
  for (EdgeId e : route_edges(j, clockwise)) {
    best = std::min(best, capacity(e));
  }
  return best;
}

EdgeId RingInstance::min_capacity_edge() const {
  const auto it = std::min_element(capacities_.begin(), capacities_.end());
  return static_cast<EdgeId>(it - capacities_.begin());
}

Weight RingInstance::solution_weight(const RingSapSolution& sol) const {
  Weight total = 0;
  // sapkit-analyze: allow(exact-arith) -- subset sum of task weights; the
  // constructor proved the full sum fits in int64 with checked_add.
  for (const RingPlacement& p : sol.placements) total += task(p.task).weight;
  return total;
}

VerifyResult verify_ring_sap(const RingInstance& inst,
                             const RingSapSolution& sol) {
  // sapkit-analyze: allow(determinism) -- membership test only, never iterated.
  std::unordered_set<TaskId> seen;
  for (const RingPlacement& p : sol.placements) {
    if (p.task < 0 || static_cast<std::size_t>(p.task) >= inst.num_tasks()) {
      return VerifyResult::failure(
          VerifyError::kIdOutOfRange,
          "task id " + std::to_string(p.task) + " out of range");
    }
    if (!seen.insert(p.task).second) {
      return VerifyResult::failure(
          VerifyError::kDuplicateId,
          "task id " + std::to_string(p.task) + " selected twice");
    }
    if (p.height < 0) {
      return VerifyResult::failure(
          VerifyError::kNegativeHeight,
          "task " + std::to_string(p.task) + " has negative height");
    }
  }

  // Per-edge occupancy check: gather vertical intervals on each edge, then
  // check capacity and pairwise disjointness directly. The stacking top is
  // computed with an overflow check so adversarial heights cannot trigger UB.
  std::vector<std::vector<std::pair<Value, Value>>> occupancy(
      inst.num_edges());
  for (const RingPlacement& p : sol.placements) {
    Value top = 0;
    if (!checked_add(p.height, inst.task(p.task).demand, &top)) {
      return VerifyResult::failure(
          VerifyError::kOverflow,
          "task " + std::to_string(p.task) +
              " stacking height overflows int64");
    }
    for (EdgeId e : inst.route_edges(p.task, p.clockwise)) {
      if (top > inst.capacity(e)) {
        return VerifyResult::failure(
            VerifyError::kCapacityExceeded,
            "task " + std::to_string(p.task) + " top " + std::to_string(top) +
                " exceeds capacity on edge " + std::to_string(e));
      }
      occupancy[static_cast<std::size_t>(e)].emplace_back(p.height, top);
    }
  }
  for (std::size_t e = 0; e < occupancy.size(); ++e) {
    auto& spans = occupancy[e];
    std::ranges::sort(spans);
    for (std::size_t i = 1; i < spans.size(); ++i) {
      if (spans[i].first < spans[i - 1].second) {
        return VerifyResult::failure(
            VerifyError::kVerticalOverlap,
            "vertical overlap on edge " + std::to_string(e));
      }
    }
  }
  return VerifyResult::success();
}

}  // namespace sap
