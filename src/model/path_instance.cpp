#include "src/model/path_instance.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "src/util/checked.hpp"

namespace sap {

PathInstance::PathInstance(std::vector<Value> capacities,
                           std::vector<Task> tasks)
    : capacities_(std::move(capacities)), tasks_(std::move(tasks)) {
  if (capacities_.empty()) {
    throw std::invalid_argument("PathInstance: path must have >= 1 edge");
  }
  for (std::size_t e = 0; e < capacities_.size(); ++e) {
    if (capacities_[e] <= 0) {
      throw std::invalid_argument("PathInstance: capacity of edge " +
                                  std::to_string(e) + " must be positive");
    }
    if (capacities_[e] > kMaxExactCapacity) {
      throw std::invalid_argument(
          "PathInstance: capacity of edge " + std::to_string(e) +
          " exceeds 2^62 (height arithmetic would not be exact in int64)");
    }
  }
  capacity_rmq_ = RangeMin(capacities_);
  const auto m = static_cast<EdgeId>(capacities_.size());
  // Checked totals: once construction succeeds, the sum of all demands and
  // of all weights each fit in int64, so every downstream subset sum (edge
  // loads, solution weights, DP accumulators) is provably exact.
  Value demand_total = 0;
  Weight weight_total = 0;
  for (std::size_t j = 0; j < tasks_.size(); ++j) {
    const Task& t = tasks_[j];
    if (t.first < 0 || t.last >= m || t.first > t.last) {
      throw std::invalid_argument("PathInstance: task " + std::to_string(j) +
                                  " has an invalid edge range");
    }
    if (t.demand <= 0) {
      throw std::invalid_argument("PathInstance: task " + std::to_string(j) +
                                  " must have positive demand");
    }
    if (t.weight < 0) {
      throw std::invalid_argument("PathInstance: task " + std::to_string(j) +
                                  " must have non-negative weight");
    }
    if (t.demand > bottleneck(static_cast<TaskId>(j))) {
      throw std::invalid_argument("PathInstance: task " + std::to_string(j) +
                                  " exceeds its bottleneck capacity");
    }
    if (!checked_add(demand_total, t.demand, &demand_total)) {
      throw std::invalid_argument(
          "PathInstance: total demand overflows int64 (instance too large "
          "for exact arithmetic)");
    }
    if (!checked_add(weight_total, t.weight, &weight_total)) {
      throw std::invalid_argument(
          "PathInstance: total weight overflows int64 (instance too large "
          "for exact arithmetic)");
    }
  }
}

Value PathInstance::bottleneck(TaskId j) const {
  const Task& t = task(j);
  return range_bottleneck(t.first, t.last);
}

Value PathInstance::range_bottleneck(EdgeId first, EdgeId last) const {
  return capacity_rmq_.min(static_cast<std::size_t>(first),
                           static_cast<std::size_t>(last));
}

EdgeId PathInstance::bottleneck_edge(TaskId j) const {
  const Task& t = task(j);
  return static_cast<EdgeId>(capacity_rmq_.argmin(
      static_cast<std::size_t>(t.first), static_cast<std::size_t>(t.last)));
}

Value PathInstance::min_capacity() const {
  return capacity_rmq_.min(0, capacities_.size() - 1);
}

Value PathInstance::max_capacity() const {
  return *std::max_element(capacities_.begin(), capacities_.end());
}

Weight PathInstance::total_weight() const noexcept {
  return std::accumulate(
      tasks_.begin(), tasks_.end(), Weight{0},
      // sapkit-analyze: allow(exact-arith) -- the constructor proved this exact
      // sum fits in int64 with checked_add; recomputing it cannot overflow.
      [](Weight acc, const Task& t) { return acc + t.weight; });
}

std::pair<PathInstance, std::vector<TaskId>> PathInstance::restrict_tasks(
    std::span<const TaskId> subset) const {
  std::vector<Task> kept;
  std::vector<TaskId> back;
  kept.reserve(subset.size());
  back.reserve(subset.size());
  for (TaskId j : subset) {
    kept.push_back(task(j));
    back.push_back(j);
  }
  return {PathInstance(capacities_, std::move(kept)), std::move(back)};
}

std::pair<PathInstance, std::vector<TaskId>> PathInstance::clamp_capacities(
    Value cap, std::span<const TaskId> subset) const {
  std::vector<Value> caps(capacities_.size());
  for (std::size_t e = 0; e < caps.size(); ++e) {
    caps[e] = std::min(capacities_[e], cap);
  }
  std::vector<Task> kept;
  std::vector<TaskId> back;
  for (TaskId j : subset) {
    const Task& t = task(j);
    if (t.demand <= std::min(cap, bottleneck(j))) {
      kept.push_back(t);
      back.push_back(j);
    }
  }
  return {PathInstance(std::move(caps), std::move(kept)), std::move(back)};
}

}  // namespace sap
