// The benchmark's workloads: what each sends to sapd, with which server
// configuration, and the checker every response goes through.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/model/path_instance.hpp"
#include "src/model/task.hpp"
#include "src/service/protocol.hpp"
#include "src/service/server.hpp"

namespace sapbench {

/// Server and caller shape of one workload. Every workload is a closed
/// loop: each caller sends its next request when the previous reply is in.
struct WorkloadSpec {
  const char* name;
  std::size_t callers;
  std::size_t shards;  ///< one solver thread each
  bool journal;                ///< cache_persist_path on
  int tail_percentile;         ///< reported as latency_tail_ms
  /// Lap workloads send whole laps over the fixed E6 pool, so every run
  /// times the same multiset of instances; the others stream until the
  /// time is up.
  bool laps;
  std::size_t min_laps;  ///< keeps >= 10 samples beyond the tail percentile
  bool certify;
};

[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);
[[nodiscard]] std::vector<std::string> workload_names();

/// One request as sent, plus what the checker needs to judge its reply.
struct Item {
  sap::service::SolveRequest request;
  std::size_t instance = 0;  ///< index into Inputs::instances
  std::size_t slot = 0;      ///< serve_mixed: index into Inputs::warmup
  bool fresh = false;        ///< a cache miss by construction
};

/// Every input of one run, generated from the workload seed.
class Inputs {
 public:
  Inputs(const WorkloadSpec& spec, std::uint64_t seed);

  [[nodiscard]] const std::vector<sap::PathInstance>& instances() const {
    return instances_;
  }
  /// Requests sent during set-up: one plain lap (lap workloads) or the
  /// serve_mixed working set.
  [[nodiscard]] const std::vector<Item>& warmup() const { return warmup_; }

  /// Lap workloads: lap `lap` is the E6 pool in pool order. Solver seeds
  /// depend on the lap and the instance, so no two requests of a run share
  /// a cache key and every run sends the same requests per lap. Neither
  /// reads the workload seed: certify_e6's peak RSS depended on the order
  /// (579 or 648 MB) and its request costs on the solver seeds.
  [[nodiscard]] std::vector<Item> lap(std::size_t lap) const;

  /// Lap workloads: the recorded SAP optimum of an E6 pool instance with
  /// at most 24 tasks; 0 when none is recorded.
  [[nodiscard]] sap::Weight optimum(std::size_t instance) const;

  /// serve_mixed: request `r` of caller `caller`. `fresh_sent` counts the
  /// caller's fresh requests so far and is advanced by this call.
  [[nodiscard]] const Item& next(std::size_t caller, std::size_t r,
                                 std::size_t* fresh_sent, Item* scratch) const;

 private:
  std::size_t add_instance(const sap::PathInstance& inst);

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  std::vector<sap::PathInstance> instances_;
  std::vector<std::string> texts_;
  std::vector<std::size_t> pool_;  ///< lap workloads: the E6 pool
  std::vector<Item> warmup_;
  std::vector<std::vector<std::size_t>> fresh_;  ///< serve_mixed, per caller
};

/// Server options for a workload. `journal_path` is used iff spec.journal.
[[nodiscard]] sap::service::ServerOptions server_options(
    const WorkloadSpec& spec, const std::string& journal_path);

/// Deterministic quality sums over the responses fed to add_quality().
struct Quality {
  sap::Weight weight_total = 0;  ///< path solution weights
  sap::Weight ub_total = 0;      ///< proven upper bounds for those paths
  std::uint64_t rounds_total = 0;
};

/// Judges responses: path solutions via verify_sap, round packings via the
/// round verifier, certificates via check_certificate. A certificate whose
/// exact_dp rung is beyond check_certificate's re-proof budget is instead
/// compared with the recorded optimum of the pool instance (counted
/// separately).
class Checker {
 public:
  explicit Checker(const Inputs& inputs) : inputs_(inputs) {}

  /// Empty when the response is correct, else the reason.
  [[nodiscard]] std::string check(const Item& item,
                                  const sap::service::SolveResponse& response);

  /// Adds a checked response to the quality sums. Path responses without a
  /// certificate are bounded by the lp_dual rung of the ladder.
  void add_quality(const Item& item,
                   const sap::service::SolveResponse& response,
                   Quality* quality);

  [[nodiscard]] std::uint64_t table_checked() const { return table_checked_; }

 private:
  std::string check_certificate_text(const Item& item,
                                     const sap::service::SolveResponse& resp);
  sap::Weight lp_bound(std::size_t instance);

  const Inputs& inputs_;
  std::unordered_map<std::string, std::string> cert_verdicts_;
  std::unordered_map<std::size_t, sap::Weight> lp_bounds_;
  std::uint64_t table_checked_ = 0;
};

}  // namespace sapbench
