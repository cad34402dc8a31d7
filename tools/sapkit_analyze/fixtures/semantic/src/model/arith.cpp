// checked-arith fixtures: raw arithmetic on Value-typed operands whose
// names the lexical exact-arith rule cannot see, plus every sanctioned
// escape (checked helpers, Int128, exact-arith and checked-arith allows).

#include "src/util/support.hpp"

namespace fix {

// VIOLATION: both operands are Value-typed, neither name is in the
// lexical vocabulary -- only the semantic pass can see this.
Value accumulate_span(const Task* tasks, int n) {
  Value running = 0;
  for (int i = 0; i < n; ++i) {
    Value step = tasks[i].demand;
    running = running + step;
  }
  return running;
}

// VIOLATION: compound multiply on quantity-typed operands.
Value scale_total(Value total, Value factor) {
  total *= factor;
  return total;
}

// VIOLATION (both rules): the right operand is a member chain; its final
// component resolves through the cross-TU member table.
Value add_task(Value base_units, const Task& t) {
  return base_units + t.demand;
}

// SILENT: routed through the checked helpers.
bool safe_total(Value a_units, Value b_units, Value* out) {
  return checked_add(a_units, b_units, out);
}

// SILENT: widening to Int128 on the same line is sanctioned.
Value widen_total(Value a_units, Value b_units) {
  const Int128 wide = Int128(a_units) + Int128(b_units);
  return static_cast<Value>(wide);
}

// SILENT: an exact-arith allow also covers checked-arith on the lines it
// covers (the one rule alias) -- one justification serves both rules.
Value lint_allowed_total(Value head, Value tail) {
  // sapkit-analyze: allow(exact-arith) -- fixture: head and tail are both
  // <= 2^31 by construction upstream.
  return head + tail;
}

// SILENT: the analyzer's own allow.
Value analyze_allowed_total(Value head, Value tail) {
  // sapkit-analyze: allow(checked-arith) -- fixture: bounded by the
  // instance normaliser; the sum fits int64.
  return head + tail;
}

// exact-arith only: vocabulary-named operands are the lexical rule's
// territory; checked-arith only adds the cases exact-arith cannot see.
Value vocab_total(Value demand_a, Value demand_b) {
  return demand_a + demand_b;
}

// SILENT: plain index math with non-quantity names is out of scope.
long index_math(long row, long col, long stride) {
  return row * stride + col;
}

}  // namespace fix
