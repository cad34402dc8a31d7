// Fundamental value types of the library: tasks on a path and the integral
// quantity types shared by every subsystem.
//
// Demands, capacities and heights are exact 64-bit integers, as are weights,
// so every feasibility check, dynamic program and oracle in the library is
// exact. (Paper quantities in R+ lose nothing: instances can be scaled.)
#pragma once

#include <compare>
#include <cstdint>

namespace sap {

using Value = std::int64_t;   ///< demands, capacities, heights
using Weight = std::int64_t;  ///< task weights / objective values
using TaskId = std::int32_t;  ///< index into an instance's task array
using EdgeId = std::int32_t;  ///< index into an instance's edge array

__extension__ typedef __int128 Int128;            ///< exact wide arithmetic
__extension__ typedef unsigned __int128 Uint128;  ///< exact wide arithmetic

/// Largest admissible edge capacity, enforced by the instance constructors.
/// Heights never exceed the (bottleneck) capacity, so with c <= 2^62 every
/// `height + demand` a solver can form satisfies h + d <= 2c < 2^63 and is
/// exact in int64 — the invariant the exact-arith lint justifications cite.
inline constexpr std::int64_t kMaxExactCapacity =
    std::int64_t{1} << 62;  // 4.6e18; any real workload is far below this

/// Exact non-negative rational, used for thresholds such as delta in
/// "delta-small" so classification never depends on floating point.
struct Ratio {
  std::int64_t num = 0;
  std::int64_t den = 1;

  /// a <= (num/den) * b, evaluated exactly in 128-bit arithmetic.
  [[nodiscard]] bool le_scaled(Value a, Value b) const noexcept {
    return static_cast<Int128>(a) * den <= static_cast<Int128>(num) * b;
  }
  /// a < (num/den) * b.
  [[nodiscard]] bool lt_scaled(Value a, Value b) const noexcept {
    return static_cast<Int128>(a) * den < static_cast<Int128>(num) * b;
  }
  // sapkit-analyze: begin-allow(float-ban) -- display-only conversion for bench
  // tables and logs; no classification or feasibility decision consumes it.
  [[nodiscard]] double as_double() const noexcept {
    return static_cast<double>(num) / static_cast<double>(den);
  }
  // sapkit-analyze: end-allow(float-ban)
};

/// A task on a path: it uses the closed edge range [first, last], has a
/// vertical extent `demand` wherever it is placed, and yields `weight` when
/// selected. In the paper's notation I_j = [s_j, t_j) with s_j = first and
/// t_j = last + 1 (vertex indices).
struct Task {
  EdgeId first = 0;
  EdgeId last = 0;
  Value demand = 0;
  Weight weight = 0;

  friend auto operator<=>(const Task&, const Task&) = default;

  [[nodiscard]] bool uses(EdgeId e) const noexcept {
    return first <= e && e <= last;
  }
  /// True iff the two tasks share at least one edge (I_i intersects I_j).
  [[nodiscard]] bool overlaps(const Task& other) const noexcept {
    return first <= other.last && other.first <= last;
  }
  /// Number of edges used.
  [[nodiscard]] EdgeId span() const noexcept { return last - first + 1; }
};

}  // namespace sap
