#include "src/model/verify.hpp"

#include <algorithm>
#include <functional>
#include <map>
// sapkit-analyze: allow(determinism) -- duplicate-id membership test only; the
// set is queried, never iterated, so its order cannot reach any output.
#include <unordered_set>

#include "src/util/checked.hpp"

namespace sap {

const char* verify_error_name(VerifyError error) noexcept {
  switch (error) {
    case VerifyError::kNone:
      return "none";
    case VerifyError::kIdOutOfRange:
      return "id_out_of_range";
    case VerifyError::kDuplicateId:
      return "duplicate_id";
    case VerifyError::kNegativeHeight:
      return "negative_height";
    case VerifyError::kCapacityExceeded:
      return "capacity_exceeded";
    case VerifyError::kVerticalOverlap:
      return "vertical_overlap";
    case VerifyError::kOverflow:
      return "overflow";
    case VerifyError::kOther:
      return "other";
  }
  return "other";
}

namespace {

VerifyResult check_ids(const PathInstance& inst,
                       std::span<const TaskId> tasks) {
  // sapkit-analyze: allow(determinism) -- membership test only, never iterated.
  std::unordered_set<TaskId> seen;
  seen.reserve(tasks.size());
  for (TaskId j : tasks) {
    if (j < 0 || static_cast<std::size_t>(j) >= inst.num_tasks()) {
      return VerifyResult::failure(
          VerifyError::kIdOutOfRange,
          "task id " + std::to_string(j) + " out of range");
    }
    if (!seen.insert(j).second) {
      return VerifyResult::failure(
          VerifyError::kDuplicateId,
          "task id " + std::to_string(j) + " selected twice");
    }
  }
  return VerifyResult::success();
}

/// Per-edge load check with overflow-checked accumulation: demands are
/// bucketed by entry/exit edge (a difference array) and the running load is
/// maintained with checked_add, so an adversarial task set whose loads
/// exceed int64 yields a typed kOverflow failure instead of UB.
VerifyResult check_loads(const PathInstance& inst,
                         std::span<const TaskId> tasks,
                         const std::function<Value(EdgeId)>& limit_of) {
  const std::size_t m = inst.num_edges();
  std::vector<Value> enter(m, 0);
  std::vector<Value> leave(m, 0);
  for (TaskId j : tasks) {
    const Task& t = inst.task(j);
    auto& in = enter[static_cast<std::size_t>(t.first)];
    auto& out = leave[static_cast<std::size_t>(t.last)];
    if (!checked_add(in, t.demand, &in) || !checked_add(out, t.demand, &out)) {
      return VerifyResult::failure(VerifyError::kOverflow,
                                   "edge load accumulation overflows int64");
    }
  }
  Value load = 0;
  for (std::size_t e = 0; e < m; ++e) {
    if (!checked_add(load, enter[e], &load)) {
      return VerifyResult::failure(VerifyError::kOverflow,
                                   "edge load accumulation overflows int64");
    }
    const auto edge = static_cast<EdgeId>(e);
    if (load > limit_of(edge)) {
      return VerifyResult::failure(
          VerifyError::kCapacityExceeded,
          "load " + std::to_string(load) + " exceeds limit " +
              std::to_string(limit_of(edge)) + " on edge " +
              std::to_string(e));
    }
    load -= leave[e];  // subtracting previously-added demands cannot wrap
  }
  return VerifyResult::success();
}

}  // namespace

VerifyResult verify_ufpp(const PathInstance& inst, const UfppSolution& sol) {
  if (auto r = check_ids(inst, sol.tasks); !r) return r;
  return check_loads(inst, sol.tasks,
                     [&](EdgeId e) { return inst.capacity(e); });
}

VerifyResult verify_ufpp_packable(const PathInstance& inst,
                                  const UfppSolution& sol, Value bound) {
  if (auto r = check_ids(inst, sol.tasks); !r) return r;
  return check_loads(inst, sol.tasks, [&](EdgeId) { return bound; });
}

namespace detail {

VerifyResult verify_sap_impl(const PathInstance& inst, const SapSolution& sol,
                             const std::function<Value(TaskId)>& cap_of) {
  std::vector<TaskId> ids;
  ids.reserve(sol.placements.size());
  for (const Placement& p : sol.placements) ids.push_back(p.task);
  if (auto r = check_ids(inst, ids); !r) return r;

  for (const Placement& p : sol.placements) {
    if (p.height < 0) {
      return VerifyResult::failure(
          VerifyError::kNegativeHeight,
          "task " + std::to_string(p.task) + " has negative height");
    }
    Value top = 0;
    if (!checked_add(p.height, inst.task(p.task).demand, &top)) {
      return VerifyResult::failure(
          VerifyError::kOverflow,
          "task " + std::to_string(p.task) +
              " stacking height overflows int64");
    }
    if (top > cap_of(p.task)) {
      return VerifyResult::failure(
          VerifyError::kCapacityExceeded,
          "task " + std::to_string(p.task) + " top " + std::to_string(top) +
              " exceeds its capacity limit " +
              std::to_string(cap_of(p.task)));
    }
  }

  // Sweep edges left to right; maintain active vertical intervals in a map
  // keyed by height, and check each insertion against its neighbours.
  struct Event {
    EdgeId edge;
    bool insert;
    std::size_t index;  // into sol.placements
  };
  std::vector<Event> events;
  events.reserve(2 * sol.placements.size());
  for (std::size_t i = 0; i < sol.placements.size(); ++i) {
    const Task& t = inst.task(sol.placements[i].task);
    events.push_back({t.first, true, i});
    events.push_back({static_cast<EdgeId>(t.last + 1), false, i});
  }
  std::ranges::sort(events, [](const Event& a, const Event& b) {
    if (a.edge != b.edge) return a.edge < b.edge;
    return a.insert < b.insert;  // removals before insertions on each edge
  });

  std::map<Value, std::pair<Value, TaskId>> active;  // height -> (top, id)
  for (const Event& ev : events) {
    const Placement& p = sol.placements[ev.index];
    const Value bottom = p.height;
    // sapkit-analyze: allow(exact-arith) -- the same sum passed checked_add in
    // the per-placement pass above, so recomputing it raw cannot overflow.
    const Value top = p.height + inst.task(p.task).demand;
    if (!ev.insert) {
      active.erase(bottom);
      continue;
    }
    auto above = active.lower_bound(bottom);
    if (above != active.end() && above->first < top) {
      return VerifyResult::failure(
          VerifyError::kVerticalOverlap,
          "tasks " + std::to_string(p.task) + " and " +
              std::to_string(above->second.second) + " overlap vertically");
    }
    if (above != active.begin()) {
      auto below = std::prev(above);
      if (below->second.first > bottom) {
        return VerifyResult::failure(
            VerifyError::kVerticalOverlap,
            "tasks " + std::to_string(p.task) + " and " +
                std::to_string(below->second.second) + " overlap vertically");
      }
    }
    active.emplace(bottom, std::make_pair(top, p.task));
  }
  return VerifyResult::success();
}

}  // namespace detail

VerifyResult verify_sap(const PathInstance& inst, const SapSolution& sol) {
  return detail::verify_sap_impl(
      inst, sol, [&](TaskId j) { return inst.bottleneck(j); });
}

VerifyResult verify_sap_packable(const PathInstance& inst,
                                 const SapSolution& sol, Value bound) {
  return detail::verify_sap_impl(inst, sol, [&](TaskId) { return bound; });
}

}  // namespace sap
