#include "src/model/gravity.hpp"

#include <algorithm>
#include <vector>

namespace sap {
namespace {

/// Lowest feasible height for `t` against the fixed placements in `settled`
/// (only those overlapping t matter), capped at `max_height`. Returns
/// max_height if no lower position fits.
Value lowest_fit(const PathInstance& inst, const Task& t,
                 const std::vector<Placement>& settled, Value max_height) {
  // Candidate heights: the floor, and the top of every overlapping task.
  std::vector<std::pair<Value, Value>> blocks;  // [bottom, top) of neighbours
  for (const Placement& q : settled) {
    const Task& other = inst.task(q.task);
    if (t.overlaps(other)) {
      // sapkit-analyze: allow(exact-arith) -- gravity runs on feasible inputs:
      // h + d <= c <= 2^62 (instance construction), so tops are exact.
      blocks.emplace_back(q.height, q.height + other.demand);
    }
  }
  std::ranges::sort(blocks);
  Value candidate = 0;
  for (const auto& [bottom, top] : blocks) {
    if (candidate >= max_height) break;
    // sapkit-analyze: allow(exact-arith) -- candidate <= max_height <= original
    // feasible height and d <= c, so candidate + d <= 2c <= 2^63 is exact.
    if (bottom >= candidate + t.demand) break;  // gap below `bottom` fits
    candidate = std::max(candidate, top);
  }
  return std::min(candidate, max_height);
}

}  // namespace

SapSolution apply_gravity(const PathInstance& inst, const SapSolution& sol) {
  std::vector<Placement> order = sol.placements;
  std::ranges::sort(order, [](const Placement& a, const Placement& b) {
    return a.height < b.height;
  });
  std::vector<Placement> settled;
  settled.reserve(order.size());
  for (const Placement& p : order) {
    const Task& t = inst.task(p.task);
    const Value h = lowest_fit(inst, t, settled, p.height);
    settled.push_back({p.task, h});
  }
  return SapSolution{std::move(settled)};
}

bool is_grounded(const PathInstance& inst, const SapSolution& sol) {
  for (const Placement& p : sol.placements) {
    if (p.height == 0) continue;
    bool supported = false;
    const Task& t = inst.task(p.task);
    for (const Placement& q : sol.placements) {
      if (q.task == p.task) continue;
      const Task& other = inst.task(q.task);
      // sapkit-analyze: allow(exact-arith) -- feasible solution: h + d <= c <=
      // 2^62 (instance construction), so the support top is exact.
      if (t.overlaps(other) && q.height + other.demand == p.height) {
        supported = true;
        break;
      }
    }
    if (!supported) return false;
  }
  return true;
}

}  // namespace sap
