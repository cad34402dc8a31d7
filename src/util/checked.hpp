// Overflow-checked 64-bit arithmetic: the single blessed route for raw
// `+`/`*` on quantity-typed values (demands, capacities, heights, weights)
// in the exactness-critical directories. sapkit-analyze (rule exact-arith)
// flags arithmetic on those quantities unless it goes through these helpers
// or widens to Int128 first; see docs/STATIC_ANALYSIS.md.
//
// All helpers return false (leaving *out unspecified) instead of wrapping,
// so an adversarial input yields a typed failure, never signed-overflow UB.
#pragma once

#include <cstdint>

#include "src/model/task.hpp"

namespace sap {

/// *out = a + b unless the sum overflows int64.
[[nodiscard]] inline bool checked_add(std::int64_t a, std::int64_t b,
                                      std::int64_t* out) noexcept {
  return !__builtin_add_overflow(a, b, out);
}

/// *out = a - b unless the difference overflows int64.
[[nodiscard]] inline bool checked_sub(std::int64_t a, std::int64_t b,
                                      std::int64_t* out) noexcept {
  return !__builtin_sub_overflow(a, b, out);
}

/// *out = a * b unless the product overflows int64.
[[nodiscard]] inline bool checked_mul(std::int64_t a, std::int64_t b,
                                      std::int64_t* out) noexcept {
  return !__builtin_mul_overflow(a, b, out);
}

/// 128-bit variants for certificate arithmetic (dual objectives multiply an
/// int64 price by an int64 capacity before summing over edges).
[[nodiscard]] inline bool checked_add(Int128 a, Int128 b,
                                      Int128* out) noexcept {
  return !__builtin_add_overflow(a, b, out);
}

[[nodiscard]] inline bool checked_mul(Int128 a, Int128 b,
                                      Int128* out) noexcept {
  return !__builtin_mul_overflow(a, b, out);
}

}  // namespace sap
