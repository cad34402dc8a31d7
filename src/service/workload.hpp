// The sapd workload table: one entry per problem kind, and the one request
// pipeline every entry runs — read the instance, solve with the requested
// algo, fall back on an expired deadline, certify, verify, write.
//
// The table is the single place a kind is defined: the wire protocol spells
// kind names through it, the cache and journal key on its lanes, sapd's
// workers and sapkit_cli run requests through it. Adding a kind is one
// entry.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "src/service/protocol.hpp"

namespace sap::service {

struct ServerOptions;

/// One problem kind.
struct Workload {
  SolveRequest::Kind kind;
  /// Wire and CLI spelling: "kind <name>" in the envelope, `--kind <name>`.
  std::string_view name;
  /// Cache digest lane, persisted with every journal record: never renumber.
  std::uint64_t lane;
  /// Algo names the kind accepts; empty when it ignores `algo` (rings).
  std::span<const std::string_view> algos;
  /// The request pipeline instantiated for this kind.
  void (*run)(const SolveRequest& request, const ServerOptions& options,
              SolveResponse* response);
};

/// The table: exactly the four kinds, in SolveRequest::Kind order.
[[nodiscard]] std::span<const Workload> workloads() noexcept;
[[nodiscard]] const Workload& workload_of(SolveRequest::Kind kind) noexcept;
/// nullptr when no kind is spelled `name`.
[[nodiscard]] const Workload* find_workload(std::string_view name) noexcept;
/// "path|ring|round-ufp|round-sap", for messages.
[[nodiscard]] std::string workload_names();

/// Runs one request through its kind's entry under `options` (read limits,
/// oracle and ladder knobs, default deadline, degradation, fault seam) and
/// times it (wall_micros). Throws std::invalid_argument for a bad instance,
/// algo or option, DeadlineExceeded when the budget expired and degradation
/// is off, and whatever else a solver throws.
[[nodiscard]] SolveResponse run_workload(const SolveRequest& request,
                                         const ServerOptions& options);

}  // namespace sap::service
