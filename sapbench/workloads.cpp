#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <utility>

#include "src/cert/check.hpp"
#include "src/cert/ladder.hpp"
#include "src/gen/generators.hpp"
#include "src/harness/batch_runner.hpp"
#include "src/io/instance_io.hpp"
#include "src/model/verify.hpp"
#include "src/round/verify.hpp"
#include "src/util/rng.hpp"

namespace sapbench {
namespace {

using sap::service::SolveRequest;
using sap::service::SolveResponse;

constexpr std::array<WorkloadSpec, 3> kWorkloads{{
    {"solve_e6", 1, 1, false, 90, true, 4, false},
    {"certify_e6", 1, 1, false, 90, true, 3, true},
    {"serve_mixed", 2, 2, true, 99, false, 0, false},
}};

constexpr sap::CapacityProfile kProfiles[] = {
    sap::CapacityProfile::kUniform,   sap::CapacityProfile::kValley,
    sap::CapacityProfile::kMountain,  sap::CapacityProfile::kStaircase,
    sap::CapacityProfile::kRandomWalk,
};

/// E6 pool instances per grid cell, by task count. The pool has an odd
/// number of instances per lap (35), so the median and p90 of a lap
/// workload's round trips fall in the middle of one instance's cluster of
/// samples, not on the gap between two clusters, where they would be an
/// extreme sample of one of them.
constexpr std::size_t kPoolPerCell[] = {2, 2, 3};  // n = 12, 24, 48

/// SAP optimum of each E6 pool instance with at most 24 tasks (the ladder's
/// exact_dp cap), in pool order; 0 where the pool instance has 48 tasks.
/// Each entry is the optimum of the UFPP relaxation (ufpp_exact_profile_dp,
/// proven) and is attained by a SAP solution of the profile DP that passes
/// verify_sap, so it is the SAP optimum. Recorded once, when the benchmark
/// was added; the checker compares exact_dp bounds with it.
constexpr sap::Weight kPoolOptimum[] = {
    324, 495, 816, 877, 0, 0, 0,  // uniform
    435, 530, 946, 940, 0, 0, 0,  // valley
    435, 530, 948, 918, 0, 0, 0,  // mountain
    366, 530, 902, 854, 0, 0, 0,  // staircase
    376, 564, 836, 902, 0, 0, 0,  // random walk
};

/// Warm-up laps use lap numbers no timed lap reaches.
constexpr std::size_t kWarmupLap = std::size_t{1} << 40;
/// serve_mixed: working-set instances (each sent as 3 kinds) and fresh
/// instances pre-generated per caller.
constexpr std::size_t kWorkingInstances = 40;
constexpr std::uint64_t kWorkingSetSeed = 0x5e6;
constexpr std::size_t kFreshPerCaller = 1024;
/// serve_mixed: one request in this many is fresh.
constexpr std::uint64_t kFreshEvery = 10;

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0) {
  std::uint64_t x = a ^ (b * 0x9e3779b97f4a7c15ULL) ^ (c * 0xc2b2ae3d27d4eb4fULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// bench_full_solver's E6 grid: 12 edges, capacities 8..48, mixed demand.
sap::PathInstance e6_instance(sap::CapacityProfile profile, std::size_t tasks,
                              std::uint64_t seed) {
  sap::PathGenOptions gen;
  gen.num_edges = 12;
  gen.num_tasks = tasks;
  gen.profile = profile;
  gen.min_capacity = 8;
  gen.max_capacity = 48;
  gen.demand = sap::DemandClass::kMixed;
  sap::Rng rng(seed);
  return sap::generate_path_instance(gen, rng);
}

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadSpec& spec : kWorkloads) out.emplace_back(spec.name);
  return out;
}

std::size_t Inputs::add_instance(const sap::PathInstance& inst) {
  instances_.push_back(inst);
  texts_.push_back(sap::to_string(inst));
  return instances_.size() - 1;
}

Inputs::Inputs(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {
  if (spec.laps) {
    // The fixed E6 pool of bench_service (2 per grid cell) plus the next
    // n=48 instance of each profile. Instance costs span five orders of
    // magnitude, so the seed does not draw new instances: every run times
    // the same heavy tail.
    constexpr std::size_t kSizes[] = {12, 24, 48};
    for (const sap::CapacityProfile profile : kProfiles) {
      for (std::size_t s = 0; s < std::size(kSizes); ++s) {
        const std::size_t n = kSizes[s];
        for (std::size_t i = 0; i < kPoolPerCell[s]; ++i) {
          pool_.push_back(add_instance(
              e6_instance(profile, n, sap::batch_case_seed(5000 + n, i))));
        }
      }
    }
    warmup_ = lap(kWarmupLap);
    for (Item& item : warmup_) item.request.want_certificate = false;
    return;
  }
  // The working set is fixed like the E6 pool (its replies are the quality
  // sample); the seed draws the request sequence and the fresh instances.
  for (std::size_t w = 0; w < kWorkingInstances; ++w) {
    const std::size_t index = add_instance(
        e6_instance(kProfiles[w % 5], 12, mix(kWorkingSetSeed, 1, w)));
    for (const SolveRequest::Kind kind :
         {SolveRequest::Kind::kPath, SolveRequest::Kind::kRoundUfp,
          SolveRequest::Kind::kRoundSap}) {
      Item item;
      item.instance = index;
      item.slot = warmup_.size();
      item.request.kind = kind;
      item.request.seed = mix(kWorkingSetSeed, 2, w) | 1;
      item.request.instance_text = texts_[index];
      warmup_.push_back(std::move(item));
    }
  }
  fresh_.resize(spec.callers);
  for (std::size_t c = 0; c < spec.callers; ++c) {
    for (std::size_t i = 0; i < kFreshPerCaller; ++i) {
      fresh_[c].push_back(add_instance(
          e6_instance(kProfiles[i % 5], 12, mix(seed, 3 + c, i))));
    }
  }
}

sap::Weight Inputs::optimum(std::size_t instance) const {
  return spec_.laps && instance < std::size(kPoolOptimum)
             ? kPoolOptimum[instance]
             : 0;
}

std::vector<Item> Inputs::lap(std::size_t lap) const {
  std::vector<Item> items(pool_.size());
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    items[i].instance = pool_[i];
    items[i].fresh = true;
    // Solver seeds depend on the lap and the instance only, so a lap is the
    // same set of requests in every run; each lap still misses the cache.
    items[i].request.seed = mix(lap, pool_[i]) | 1;
    items[i].request.want_certificate = spec_.certify;
    items[i].request.instance_text = texts_[pool_[i]];
  }
  return items;
}

const Item& Inputs::next(std::size_t caller, std::size_t r,
                         std::size_t* fresh_sent, Item* scratch) const {
  const std::uint64_t h = mix(seed_, 100 + caller, r);
  if (h % kFreshEvery != 0) return warmup_[(h / kFreshEvery) % warmup_.size()];
  const std::size_t k = (*fresh_sent)++;
  scratch->instance = fresh_[caller][k % kFreshPerCaller];
  scratch->fresh = true;
  scratch->request.kind = k % 2 == 0 ? SolveRequest::Kind::kRoundUfp
                                     : SolveRequest::Kind::kRoundSap;
  // Reusing an instance in a later cycle takes a new seed: a new cache key.
  scratch->request.seed = 1 + k / kFreshPerCaller;
  scratch->request.instance_text = texts_[scratch->instance];
  return *scratch;
}

sap::service::ServerOptions server_options(const WorkloadSpec& spec,
                                           const std::string& journal_path) {
  sap::service::ServerOptions options;
  options.port = 0;
  options.shards = spec.shards;
  options.solver_threads = spec.shards;
  options.cache_entries = 4096;
  if (spec.journal) options.cache_persist_path = journal_path;
  return options;
}

std::string Checker::check(const Item& item, const SolveResponse& response) {
  const sap::PathInstance& inst = inputs_.instances()[item.instance];
  if (response.total_tasks != inst.num_tasks()) return "total_tasks mismatch";
  if (item.request.kind == SolveRequest::Kind::kPath) {
    if (response.is_round) return "round response to a path request";
    std::istringstream is(response.solution_text);
    const sap::SapSolution sol = sap::read_sap_solution(is);
    if (const sap::VerifyResult v = sap::verify_sap(inst, sol); !v) {
      return "verify_sap: " + v.reason;
    }
    if (sol.weight(inst) != response.weight) return "weight mismatch";
    if (sol.size() != response.placed) return "placed mismatch";
    if (!item.request.want_certificate) return {};
    return check_certificate_text(item, response);
  }
  if (!response.is_round) return "path response to a round request";
  std::istringstream is(response.solution_text);
  const sap::round::RoundAssignment assignment =
      sap::read_round_assignment(is);
  const sap::round::RoundKind kind =
      item.request.kind == SolveRequest::Kind::kRoundUfp
          ? sap::round::RoundKind::kUfp
          : sap::round::RoundKind::kSap;
  if (assignment.kind != kind) return "round kind mismatch";
  if (const sap::VerifyResult v =
          sap::round::verify_round_assignment(inst, assignment);
      !v) {
    return "verify_round_assignment: " + v.reason;
  }
  if (assignment.num_rounds() != response.rounds) return "rounds mismatch";
  if (assignment.total_placements() != response.placed) {
    return "placed mismatch";
  }
  return {};
}

std::string Checker::check_certificate_text(const Item& item,
                                            const SolveResponse& resp) {
  if (resp.certificate_text.empty()) return "no certificate";
  std::string key = std::to_string(item.instance);
  key += '\n';
  key += resp.solution_text;
  key += resp.certificate_text;
  if (const auto it = cert_verdicts_.find(key); it != cert_verdicts_.end()) {
    return it->second;
  }
  const sap::PathInstance& inst = inputs_.instances()[item.instance];
  std::istringstream sol_is(resp.solution_text);
  const sap::SapSolution sol = sap::read_sap_solution(sol_is);
  std::istringstream cert_is(resp.certificate_text);
  const sap::cert::Certificate cert = sap::read_certificate(cert_is);
  std::string verdict;
  const sap::cert::CheckResult check =
      sap::cert::check_certificate(inst, sol, cert);
  if (!check.valid) verdict = "check_certificate: " + check.reason;
  if (!check.valid && cert.ub.rung == sap::cert::UbRung::kExactDp &&
      starts_with(check.reason, "exact_dp rung unverifiable")) {
    // check_certificate has already passed feasibility and the weight
    // claim. The bound is compared with the recorded optimum instead of a
    // re-proof; the ratio claim is then checked as check_certificate does.
    const sap::Weight optimum = inputs_.optimum(item.instance);
    if (optimum == 0) {
      verdict += " (no recorded optimum)";
    } else if (cert.ub.value != optimum) {
      verdict = "exact_dp bound differs from the recorded SAP optimum";
    } else if (cert.ub.value < cert.solution_weight) {
      verdict = "upper bound is below the solution weight";
    } else if (cert.alpha_num < 0 || cert.alpha_den < 0 ||
               (cert.alpha_num == 0 && cert.alpha_den == 0)) {
      verdict = "malformed ratio claim";
    } else if (static_cast<sap::Int128>(cert.solution_weight) * cert.alpha_num <
               static_cast<sap::Int128>(cert.ub.value) * cert.alpha_den) {
      verdict = "ratio claim not supported";
    } else {
      verdict.clear();
      ++table_checked_;
    }
  }
  cert_verdicts_.emplace(std::move(key), verdict);
  return verdict;
}

sap::Weight Checker::lp_bound(std::size_t instance) {
  if (const auto it = lp_bounds_.find(instance); it != lp_bounds_.end()) {
    return it->second;
  }
  sap::cert::LadderOptions options;
  options.try_exact_dp = false;
  options.try_ufpp_bnb = false;
  const sap::cert::LadderResult result =
      sap::cert::run_upper_bound_ladder(inputs_.instances()[instance], options);
  return lp_bounds_[instance] = result.best.value;
}

void Checker::add_quality(const Item& item, const SolveResponse& response,
                          Quality* quality) {
  if (response.is_round) {
    quality->rounds_total += response.rounds;
    return;
  }
  quality->weight_total += response.weight;
  if (response.certificate_text.empty()) {
    quality->ub_total += lp_bound(item.instance);
    return;
  }
  std::istringstream is(response.certificate_text);
  quality->ub_total += sap::read_certificate(is).ub.value;
}

}  // namespace sapbench
