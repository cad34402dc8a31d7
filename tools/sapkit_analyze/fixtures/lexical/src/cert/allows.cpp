// Fixture: the allow grammar, good and bad.

namespace sap {

// sapkit-analyze: allow(exact-arith) -- fixture: suppressed on the next line.
long suppressed(long demand_a, long demand_b) { return demand_a + demand_b; }

// sapkit-analyze: allow(exact-arith) -- fixture: a justification may wrap
// across several comment-only lines and still cover the first code line.
long wrapped(long weight_a, long weight_b) { return weight_a + weight_b; }

// sapkit-analyze: begin-allow(float-ban) -- fixture: a declared float region.
double region_a(double x) { return x; }
double region_b(double x) { return x; }
// sapkit-analyze: end-allow(float-ban)

// sapkit-analyze: allow(exact-arith)
long missing_justification(long demand_a) { return demand_a + 1; }

// sapkit-analyze: allow(made-up-rule) -- fixture: no such rule.
long unknown_rule(long weight) { return weight; }

// sapkit-analyze: allow(float-ban) -- fixture: suppresses nothing below.
long stale(long count) { return count; }

// sapkit-analyze: end-allow(determinism)

// sapkit-analyze: begin-allow(determinism) -- fixture: left open on purpose.

}  // namespace sap
