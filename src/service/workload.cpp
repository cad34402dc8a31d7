#include "src/service/workload.hpp"

#include <array>
#include <chrono>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "src/core/ring_solver.hpp"
#include "src/core/sap_solver.hpp"
#include "src/model/verify.hpp"
#include "src/round/approx.hpp"
#include "src/round/exact.hpp"
#include "src/round/verify.hpp"
#include "src/sapu/sapu_solver.hpp"
#include "src/service/server.hpp"
#include "src/util/telemetry.hpp"

namespace sap::service {
namespace {

/// One-line {"name": value, ...} over the (deterministic) counters only;
/// timer seconds are scheduling noise a service client rarely wants.
std::string compact_counters_json(const TelemetryReport& report) {
  std::string json = "{";
  bool first = true;
  for (const auto& [name, value] : report.counters()) {
    if (!first) json += ", ";
    first = false;
    json += '"';
    json += name;  // counter names are plain identifiers
    json += "\": ";
    json += std::to_string(value);
  }
  json += '}';
  return json;
}

std::string join(std::span<const std::string_view> names) {
  std::string joined;
  for (const std::string_view name : names) {
    if (!joined.empty()) joined += '|';
    joined += name;
  }
  return joined;
}

template <typename Value>
std::string text_of(void (*write)(std::ostream&, const Value&),
                    const Value& value) {
  std::ostringstream os;
  write(os, value);
  return os.str();
}

SolverParams request_params(const SolveRequest& request, Deadline deadline) {
  return {.eps = request.eps, .seed = request.seed, .deadline = deadline};
}

/// Budget-capped heuristic configuration for the deadline fallback: every
/// stage runs with small polynomial caps, so it completes promptly with no
/// deadline of its own (and therefore never throws DeadlineExceeded).
SolverParams degraded_params(const SolveRequest& request) {
  SolverParams params = request_params(request, Deadline::unlimited());
  params.small_backend = SmallTaskBackend::kLocalRatio;  // no LP solves
  params.medium_exact_capacity_limit = 0;  // always the grounded heuristic
  params.large_max_nodes = 100'000;
  return params;
}

/// One stage solver of the paper's pipeline run on every task.
template <auto Stage>
SapSolution all_tasks(const PathInstance& inst, const SolverParams& params,
                      const ServerOptions&) {
  std::vector<TaskId> ids(inst.num_tasks());
  std::iota(ids.begin(), ids.end(), TaskId{0});
  return Stage(inst, ids, params, nullptr);
}

round::RoundAssignment approx_rounds(
    const PathInstance& inst, round::RoundKind kind,
    const round::RoundApproxOptions& options,
    round::RoundApproxReport* report = nullptr) {
  return kind == round::RoundKind::kUfp
             ? round::solve_round_ufp_approx(inst, options, report)
             : round::solve_round_sap_approx(inst, options, report);
}

/// One named solver of a kind.
template <typename Solve>
struct Algo {
  std::string_view name;
  Solve solve;
};

template <typename Solve, std::size_t N>
constexpr std::array<std::string_view, N> names_of(
    const Algo<Solve> (&algos)[N]) {
  std::array<std::string_view, N> names{};
  for (std::size_t i = 0; i < N; ++i) names[i] = algos[i].name;
  return names;
}

/// `scope` qualifies the kind in the unknown-algo message.
template <typename Solve, std::size_t N>
Solve find_algo(const Algo<Solve> (&algos)[N], const std::string& algo,
                std::string_view scope) {
  for (const Algo<Solve>& entry : algos) {
    if (entry.name == algo) return entry.solve;
  }
  throw std::invalid_argument("unknown algo '" + algo + "'" +
                              std::string(scope) + " (want " +
                              join(names_of(algos)) + ")");
}

// Each algo table lists a kind's solvers by wire name. The round solvers
// report what the CLI prints beside a packing as round.* counters.
using PathSolve = SapSolution (*)(const PathInstance&, const SolverParams&,
                                  const ServerOptions&);
constexpr Algo<PathSolve> kPathAlgos[] = {
    {"full", [](const auto& inst, const auto& params,
                const auto&) { return solve_sap(inst, params); }},
    {"exact", [](const auto& inst, const auto& params, const auto& options) {
       // An unproven optimum (beam cap hit) surfaces as dp.truncated.
       SapExactOptions exact = options.exact;
       exact.deadline = exact.deadline.min(params.deadline);
       const SapExactResult oracle = sap_exact_profile_dp(inst, exact);
       if (oracle.timed_out) throw DeadlineExceeded("exact oracle");
       return oracle.solution;
     }},
    {"uniform", [](const auto& inst, const auto&,
                   const auto&) { return solve_sap_uniform(inst); }},
    {"small", all_tasks<solve_small_tasks>},
    {"medium", all_tasks<solve_medium_tasks>},
    {"large", all_tasks<solve_large_tasks>},
};

using RoundSolve = round::RoundAssignment (*)(const PathInstance&,
                                              round::RoundKind, Deadline);
constexpr Algo<RoundSolve> kRoundAlgos[] = {
    {"full", [](const auto& inst, auto kind, auto deadline) {
       round::RoundApproxOptions approx;
       approx.deadline = deadline;
       round::RoundApproxReport report;
       round::RoundAssignment packing =
           approx_rounds(inst, kind, approx, &report);
       telemetry::count("round.small_rounds",
                        static_cast<std::int64_t>(report.small_rounds));
       telemetry::count("round.large_rounds",
                        static_cast<std::int64_t>(report.large_rounds));
       telemetry::count("round.lower_bound", report.lower_bound);
       if (report.slab_arm_won) telemetry::count("round.slab_arm_won");
       return packing;
     }},
    {"exact", [](const auto& inst, auto kind, auto deadline) {
       round::RoundExactOptions exact;
       exact.deadline = deadline;
       const round::RoundExactResult oracle =
           round::solve_round_exact(inst, kind, exact);
       if (oracle.timed_out) throw DeadlineExceeded("round exact oracle");
       telemetry::count("round.exact.nodes",
                        static_cast<std::int64_t>(oracle.nodes));
       if (!oracle.proven_optimal) telemetry::count("round.exact.truncated");
       return oracle.assignment;
     }},
};

constexpr auto kPathAlgoNames = names_of(kPathAlgos);
constexpr auto kRoundAlgoNames = names_of(kRoundAlgos);

// A family is the typed half of a table entry: the instance reader, the
// algo solver, the deadline fallback, the verifier and the response writer.

/// Max-weight SAP on a path: the paper's pipeline and its stage solvers.
struct PathFamily {
  using Instance = PathInstance;
  using Solution = SapSolution;
  static constexpr bool kCertifiable = true;
  static constexpr auto read = read_path_instance;
  static constexpr auto verify = verify_sap;

  static Solution solve(const Instance& inst, const SolveRequest& request,
                        const ServerOptions& options, Deadline deadline) {
    return find_algo(kPathAlgos, request.algo, "")(
        inst, request_params(request, deadline), options);
  }
  static Solution fallback(const Instance& inst, const SolveRequest& request) {
    return solve_sap(inst, degraded_params(request));
  }
  static void write(const Instance& inst, const Solution& sol,
                    SolveResponse* response) {
    response->weight = sol.weight(inst);
    response->placed = sol.size();
    response->solution_text = text_of(write_sap_solution, sol);
  }
};

/// Max-weight SAP on a ring (the paper's ring reduction); ignores `algo`.
struct RingFamily {
  using Instance = RingInstance;
  using Solution = RingSapSolution;
  static constexpr bool kCertifiable = true;
  static constexpr auto read = read_ring_instance;
  static constexpr auto verify = verify_ring_sap;

  static Solution solve(const Instance& inst, const SolveRequest& request,
                        const ServerOptions&, Deadline deadline) {
    return solve_ring_sap(inst, {.path = request_params(request, deadline)});
  }
  static Solution fallback(const Instance& inst, const SolveRequest& request) {
    return solve_ring_sap(inst, {.path = degraded_params(request)});
  }
  static void write(const Instance& inst, const Solution& sol,
                    SolveResponse* response) {
    response->weight = inst.solution_weight(sol);
    response->placed = sol.size();
    response->solution_text = text_of(write_ring_solution, sol);
  }
};

/// Round-UFP / Round-SAP: pack every task of a path instance into the
/// fewest rounds. One family for both, parameterised by the round kind.
template <round::RoundKind Kind>
struct RoundFamily {
  using Instance = PathInstance;
  using Solution = round::RoundAssignment;
  static constexpr bool kCertifiable = false;
  static constexpr auto read = read_path_instance;
  static constexpr auto verify = round::verify_round_assignment;

  static Solution solve(const Instance& inst, const SolveRequest& request,
                        const ServerOptions&, Deadline deadline) {
    return find_algo(kRoundAlgos, request.algo, " for a round kind")(
        inst, Kind, deadline);
  }
  /// Plain first fit (no strip-packing portfolio, no oracle) is polynomial
  /// and always yields a valid packing: more rounds instead of a rejection.
  static Solution fallback(const Instance& inst, const SolveRequest&) {
    round::RoundApproxOptions options;
    options.portfolio = false;
    return approx_rounds(inst, Kind, options);
  }
  static void write(const Instance& inst, const Solution& assignment,
                    SolveResponse* response) {
    // Round packings place every task; weight reports the packed total.
    response->weight = inst.total_weight();
    response->placed = assignment.total_placements();
    response->is_round = true;
    response->rounds = assignment.num_rounds();
    response->solution_text = text_of(write_round_assignment, assignment);
  }
};

void note_skipped(SolveResponse* response, std::string_view stage) {
  response->degraded = true;
  if (!response->skipped.empty()) response->skipped += ',';
  response->skipped += stage;
}

/// The request pipeline, once for every family.
template <typename Family>
void run_family(const SolveRequest& request, const ServerOptions& options,
                SolveResponse* response) {
  if (!Family::kCertifiable && request.want_certificate) {
    throw std::invalid_argument(
        "certificates are not defined for round kinds");
  }
  // The request's deadline_ms wins; otherwise the server default applies;
  // otherwise unlimited.
  const std::int64_t budget_ms = request.deadline_ms > 0
                                     ? request.deadline_ms
                                     : options.default_deadline_ms;
  const Deadline deadline =
      budget_ms > 0 ? Deadline::after_ms(budget_ms) : Deadline::unlimited();
  std::istringstream is(request.instance_text);
  const typename Family::Instance inst = Family::read(is, options.read_limits);
  typename Family::Solution sol;
  TelemetryReport telemetry;
  {
    TelemetrySession session(&telemetry);
    try {
      sol = Family::solve(inst, request, options, deadline);
    } catch (const DeadlineExceeded&) {
      // Serve the kind's budget-free fallback, marked degraded, or let the
      // rejection through.
      if (!options.degrade_on_deadline) throw;
      if (options.fault_injector) {
        options.fault_injector(FaultPoint::kPreFallback);
      }
      // A kind that ignores algo reports its own name: solve.ring.
      const Workload& workload = workload_of(request.kind);
      note_skipped(response, "solve." + (workload.algos.empty()
                                             ? std::string(workload.name)
                                             : request.algo));
      sol = Family::fallback(inst, request);
    }
    if constexpr (Family::kCertifiable) {
      if (request.want_certificate) {
        // Inside the telemetry session (cert.ladder.* counters surface in
        // telemetry_json) and the request's wall time. Rungs share the
        // request deadline: one that times out is skipped and the ladder
        // falls through to a cheaper bound.
        cert::LadderOptions certify = options.certify;
        certify.deadline = certify.deadline.min(deadline);
        const cert::CertifyOutcome outcome =
            cert::certify_solution(inst, sol, certify);
        for (const cert::LadderRungAttempt& attempt :
             outcome.ladder.attempts) {
          if (attempt.timed_out) {
            note_skipped(response, std::string("cert.") +
                                       cert::ub_rung_name(attempt.rung));
          }
        }
        if (outcome.certified) {
          response->certificate_text = text_of(write_certificate, outcome.cert);
        }
      }
    }
  }
  // Every answer is checked before it leaves, fallbacks included.
  if (const VerifyResult check = Family::verify(inst, sol); !check) {
    throw std::logic_error("infeasible solution: " + check.reason);
  }
  response->total_tasks = inst.num_tasks();
  response->telemetry_json = compact_counters_json(telemetry);
  Family::write(inst, sol, response);
}

// In SolveRequest::Kind order: workload_of indexes by kind.
constexpr Workload kWorkloads[] = {
    {SolveRequest::Kind::kPath, "path", 1, kPathAlgoNames,
     &run_family<PathFamily>},
    {SolveRequest::Kind::kRing, "ring", 2, {}, &run_family<RingFamily>},
    {SolveRequest::Kind::kRoundUfp, "round-ufp", 3, kRoundAlgoNames,
     &run_family<RoundFamily<round::RoundKind::kUfp>>},
    {SolveRequest::Kind::kRoundSap, "round-sap", 4, kRoundAlgoNames,
     &run_family<RoundFamily<round::RoundKind::kSap>>},
};

}  // namespace

std::span<const Workload> workloads() noexcept { return kWorkloads; }

const Workload& workload_of(SolveRequest::Kind kind) noexcept {
  return kWorkloads[static_cast<std::size_t>(kind)];
}

const Workload* find_workload(std::string_view name) noexcept {
  for (const Workload& workload : kWorkloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

std::string workload_names() {
  std::array<std::string_view, std::size(kWorkloads)> names{};
  for (std::size_t i = 0; i < names.size(); ++i) names[i] = kWorkloads[i].name;
  return join(names);
}

SolveResponse run_workload(const SolveRequest& request,
                           const ServerOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  SolveResponse response;
  workload_of(request.kind).run(request, options, &response);
  response.wall_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return response;
}

}  // namespace sap::service
