// Open-loop load smoke for sapd's scale-out serving core: an in-process,
// cache-enabled server (event loop + shards + solve cache) driven over
// loopback TCP at a paced aggregate rate. Each connection fires on a fixed
// absolute schedule and latency counts from the scheduled send time, so
// server-side queueing lands in the tail (no coordinated omission). The pool
// is the n=12 slice of bench_full_solver's E6 grid, warmed into the cache
// before the pass. Closed-loop numbers come from sapbench (sapbench/run.py).
//
// Usage: bench_service [--target-qps Q] [--duration-s S] [--clients C]
//                      [--out FILE.json]
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "src/gen/generators.hpp"
#include "src/harness/batch_runner.hpp"
#include "src/io/instance_io.hpp"
#include "src/service/client.hpp"
#include "src/service/server.hpp"
#include "src/util/stats.hpp"

using namespace sap;

namespace {

// Server shape; solver threads keep ServerOptions' hardware-count default.
constexpr std::size_t kShards = 4;
constexpr std::size_t kCacheEntries = 1024;

struct PooledInstance {
  std::string text;
  std::uint64_t seed;
};

/// The n=12 slice of bench_full_solver's E6 grid, 2 instances per profile.
std::vector<PooledInstance> build_instance_pool() {
  constexpr CapacityProfile kProfiles[] = {
      CapacityProfile::kUniform,   CapacityProfile::kValley,
      CapacityProfile::kMountain,  CapacityProfile::kStaircase,
      CapacityProfile::kRandomWalk,
  };
  std::vector<PooledInstance> pool;
  for (const CapacityProfile profile : kProfiles) {
    for (std::size_t i = 0; i < 2; ++i) {
      const std::uint64_t seed = batch_case_seed(5012, i);
      Rng rng(seed);
      PathGenOptions gen;
      gen.num_edges = 12;
      gen.num_tasks = 12;
      gen.profile = profile;
      gen.min_capacity = 8;
      gen.max_capacity = 48;
      gen.demand = DemandClass::kMixed;
      pool.push_back({to_string(generate_path_instance(gen, rng)), seed});
    }
  }
  return pool;
}

/// Populate the solve cache: one client solves every pooled instance once.
void warm_cache(service::Server& server,
                const std::vector<PooledInstance>& pool) {
  service::Client client;
  client.connect("127.0.0.1", server.port());
  for (const PooledInstance& inst : pool) {
    service::SolveRequest request;
    request.eps = 0.5;
    request.seed = inst.seed;
    request.instance_text = inst.text;
    (void)client.solve(request);
  }
}

struct OpenLoopResult {
  std::size_t sent = 0;
  std::size_t errors = 0;
  std::size_t degraded = 0;     ///< ok responses marked "degraded 1"
  double degraded_rate = 0.0;   ///< degraded / completed-ok
  double wall_seconds = 0.0;
  double qps = 0.0;       ///< completed-ok per second of scheduled window
  double target_qps = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0, max_ms = 0.0;
  std::uint64_t cache_hits = 0;       ///< delta over the pass
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_coalesced = 0;
  double hit_rate = 0.0;  ///< hits / (hits + misses), coalesced not counted
};

/// Open-loop pass: `clients` connections share one absolute schedule firing
/// at `target_qps` aggregate (thread c owns ticks c, c+clients, ...). A
/// request whose connection is still busy when its tick arrives is sent
/// late, and its latency still counts from the tick — saturation shows up
/// as tail growth instead of silently throttling the load.
OpenLoopResult run_open_loop(service::Server& server,
                             const std::vector<PooledInstance>& pool,
                             std::size_t clients, double target_qps,
                             double duration_s) {
  const service::ServerStats before = server.stats_snapshot();
  const auto per_client =
      static_cast<std::size_t>(target_qps * duration_s) / clients;
  std::vector<std::vector<double>> per_client_ms(clients);
  std::vector<std::size_t> per_client_errors(clients, 0);
  std::vector<std::size_t> per_client_degraded(clients, 0);
  // Start slightly in the future so every thread connects before tick 0.
  const auto t0 = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(100);
  const double tick_ns = 1e9 / target_qps;
  {
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        service::Client client;
        client.connect("127.0.0.1", server.port());
        per_client_ms[c].reserve(per_client);
        for (std::size_t k = 0; k < per_client; ++k) {
          const std::uint64_t tick = k * clients + c;
          const auto scheduled =
              t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                       static_cast<double>(tick) * tick_ns));
          std::this_thread::sleep_until(scheduled);
          const PooledInstance& inst = pool[tick % pool.size()];
          service::SolveRequest request;
          request.eps = 0.5;
          request.seed = inst.seed;
          request.instance_text = inst.text;
          const service::Client::SolveOutcome outcome =
              client.solve(request);
          const auto done = std::chrono::steady_clock::now();
          if (outcome.ok) {
            per_client_ms[c].push_back(
                1e3 *
                std::chrono::duration<double>(done - scheduled).count());
            if (outcome.response.degraded) ++per_client_degraded[c];
          } else {
            ++per_client_errors[c];
          }
        }
      });
    }
    for (auto& worker : workers) worker.join();
  }
  OpenLoopResult out;
  out.target_qps = target_qps;
  out.sent = per_client * clients;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::vector<double> all_ms;
  for (std::size_t c = 0; c < clients; ++c) {
    all_ms.insert(all_ms.end(), per_client_ms[c].begin(),
                  per_client_ms[c].end());
    out.errors += per_client_errors[c];
    out.degraded += per_client_degraded[c];
  }
  const std::size_t completed = out.sent - out.errors;
  out.degraded_rate = completed > 0 ? static_cast<double>(out.degraded) /
                                          static_cast<double>(completed)
                                    : 0.0;
  out.qps = static_cast<double>(completed) /
            std::max(out.wall_seconds, 1e-9);
  out.p50 = percentile(all_ms, 50.0);
  out.p95 = percentile(all_ms, 95.0);
  out.p99 = percentile(all_ms, 99.0);
  out.max_ms = all_ms.empty() ? 0.0 : *std::max_element(all_ms.begin(),
                                                        all_ms.end());
  const service::ServerStats after = server.stats_snapshot();
  out.cache_hits = after.cache_hits - before.cache_hits;
  out.cache_misses = after.cache_misses - before.cache_misses;
  out.cache_coalesced = after.cache_coalesced - before.cache_coalesced;
  const std::uint64_t keyed = out.cache_hits + out.cache_misses;
  out.hit_rate = keyed > 0 ? static_cast<double>(out.cache_hits) /
                                 static_cast<double>(keyed)
                           : 0.0;
  return out;
}

void write_json(std::ostream& out, std::size_t clients, double duration_s,
                std::size_t pool_size, const OpenLoopResult& pass) {
  out << "{\n  \"schema\": \"sapkit-bench-service-v6\",\n";
  out << "  \"config\": {\"shards\": " << kShards
      << ", \"cache_entries\": " << kCacheEntries
      << ", \"clients\": " << clients << ", \"duration_s\": " << duration_s
      << ", \"instance_pool\": " << pool_size << "},\n";
  out << "  \"results\": {\n    \"open_loop\": {\n";
  out << "      \"target_qps\": " << pass.target_qps << ",\n";
  out << "      \"requests_sent\": " << pass.sent << ",\n";
  out << "      \"requests_failed\": " << pass.errors << ",\n";
  out << "      \"degraded_returned\": " << pass.degraded << ",\n";
  out << "      \"degraded_rate\": " << pass.degraded_rate << ",\n";
  out << "      \"wall_seconds\": " << pass.wall_seconds << ",\n";
  out << "      \"achieved_qps\": " << pass.qps << ",\n";
  out << "      \"cache\": {\"hits\": " << pass.cache_hits
      << ", \"misses\": " << pass.cache_misses
      << ", \"coalesced\": " << pass.cache_coalesced
      << ", \"hit_rate\": " << pass.hit_rate << "},\n";
  out << "      \"latency_ms\": {\"p50\": " << pass.p50
      << ", \"p95\": " << pass.p95 << ", \"p99\": " << pass.p99
      << ", \"max\": " << pass.max_ms << "}\n";
  out << "    }\n  }\n}\n";
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_service [--target-qps Q] [--duration-s S] "
               "[--clients C] [--out FILE.json]\n"
               "  Q and S are positive numbers, C a positive integer, and "
               "C <= Q*S <= 1e7\n");
  return 2;
}

/// Whole-string parse of a positive, finite value. std::from_chars takes no
/// space, '+', or '-' for unsigned types, so "-1" and "abc" are rejected.
template <typename T>
bool parse_positive(const std::string& text, T& value) {
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  return ec == std::errc{} && ptr == last && value > 0 &&
         std::isfinite(static_cast<double>(value));
}

}  // namespace

int main(int argc, char** argv) {
  double target_qps = 1500.0;
  double duration_s = 4.0;
  std::size_t clients = 64;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    bool ok = true;
    if (arg == "--target-qps") {
      ok = parse_positive(value, target_qps);
    } else if (arg == "--duration-s") {
      ok = parse_positive(value, duration_s);
    } else if (arg == "--clients") {
      ok = parse_positive(value, clients);
    } else if (arg == "--out") {
      out_path = value;
    } else {
      ok = false;
    }
    if (!ok) return usage();
  }
  // Every connection sends floor(Q*S / C) requests: at least one, and few
  // enough that the per-request latency samples fit in memory.
  const double requests = target_qps * duration_s;
  if (requests < static_cast<double>(clients) || requests > 1e7) return usage();

  const std::vector<PooledInstance> pool = build_instance_pool();
  service::ServerOptions options;
  options.max_queue = 1024;
  options.shards = kShards;
  options.cache_entries = kCacheEntries;
  service::Server server(std::move(options));
  server.start();
  warm_cache(server, pool);

  std::printf("== open loop (%zu shards, %zu cache entries, %zu instances, "
              "%zu connections, target %.0f qps, %.1fs) ==\n",
              kShards, kCacheEntries, pool.size(), clients, target_qps,
              duration_s);
  const OpenLoopResult pass =
      run_open_loop(server, pool, clients, target_qps, duration_s);
  std::printf("achieved %.1f qps (%zu sent, %zu failed), hit rate "
              "%.3f (%llu hits / %llu misses / %llu coalesced)\n"
              "scheduled-send latency ms: p50 %.2f p95 %.2f p99 %.2f "
              "max %.2f; degraded %zu (rate %.4f)\n",
              pass.qps, pass.sent, pass.errors, pass.hit_rate,
              static_cast<unsigned long long>(pass.cache_hits),
              static_cast<unsigned long long>(pass.cache_misses),
              static_cast<unsigned long long>(pass.cache_coalesced),
              pass.p50, pass.p95, pass.p99, pass.max_ms, pass.degraded,
              pass.degraded_rate);
  server.stop();

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    write_json(out, clients, duration_s, pool.size(), pass);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return pass.errors == 0 ? 0 : 1;
}
