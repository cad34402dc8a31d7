// sapd end-to-end benchmark.
//
// Usage: sapd_bench --workload solve_e6|certify_e6|serve_mixed --seed N
//                   --seconds S --trace 0|1 [--work-dir DIR] [--git-sha SHA]
//                   [--smoke]
//
// Drives an in-process sapd (service::Server) through the public blocking
// service::Client, closed loop, in one process per workload. --trace 0
// prints the end-to-end metrics; --trace 1 prints the per-layer metrics of
// a separate traced run (see README.md). The last stdout line is the
// result object; the lines before it carry run metadata and request counts.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/cert/certify.hpp"
#include "src/cert/check.hpp"
#include "src/core/sap_solver.hpp"
#include "src/io/canonical.hpp"
#include "src/io/instance_io.hpp"
#include "src/round/approx.hpp"
#include "src/service/client.hpp"
#include "src/service/server.hpp"
#include "src/util/stats.hpp"
#include "src/util/telemetry.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace sapbench {
namespace {

using sap::service::Client;
using sap::service::Server;
using sap::service::SolveRequest;
using sap::service::SolveResponse;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_build/run";
  std::string git_sha = "unknown";
};

double ms_since(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string fmt_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

/// Percentiles interpolate between neighbouring samples, as sapd's own
/// latency reservoir does. On the lap workloads a lap is the same few dozen
/// solves, so latencies form clusters; a nearest-rank median jumps between
/// two clusters from run to run, an interpolated one moves smoothly.
double percentile(const std::vector<double>& samples, double p) {
  return samples.empty() ? 0.0 : sap::percentile(samples, p);
}

double median(const std::vector<double>& samples) { return percentile(samples, 50); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// One reply as recorded by a caller.
struct Record {
  Item item;  ///< instance text dropped; the checker uses the index
  SolveResponse response;
  double rtt_ms = 0;
};

Item without_text(const Item& item) {
  Item copy;
  copy.request.kind = item.request.kind;
  copy.request.seed = item.request.seed;
  copy.request.want_certificate = item.request.want_certificate;
  copy.instance = item.instance;
  copy.slot = item.slot;
  copy.fresh = item.fresh;
  return copy;
}

// ---------------------------------------------------------------------------
// Layer tracing. In the traced half each caller, once a reply is in, redoes
// in-process the work sapd did for that request, with a span around each
// call into a layer; solver timings come from a TelemetrySession around the
// program's own entry points, and solver counts from sapd's reply.

struct Replay {
  Tracer tracer;
  sap::TelemetryReport solve;   ///< solve_sap's timers, replayed
  sap::TelemetryReport sapd;    ///< counters of sapd's telemetry_json
  std::int64_t dp_states_peak = 0;  ///< max over replies
  struct Rung {
    double ms = 0;
    std::int64_t attempts = 0;
    std::int64_t proved = 0;
  };
  std::array<Rung, sap::cert::kNumUbRungs> rungs{};

  /// Everything but the spans.
  void merge(const Replay& other) {
    solve.merge(other.solve);
    sapd.merge(other.sapd);
    dp_states_peak = std::max(dp_states_peak, other.dp_states_peak);
    for (std::size_t r = 0; r < rungs.size(); ++r) {
      rungs[r].ms += other.rungs[r].ms;
      rungs[r].attempts += other.rungs[r].attempts;
      rungs[r].proved += other.rungs[r].proved;
    }
  }
};

/// Adds the counters of a reply's telemetry_json, {"name": value, ...}.
void add_sapd_counters(const std::string& json, Replay* replay) {
  std::size_t pos = 0;
  while ((pos = json.find('"', pos)) != std::string::npos) {
    const std::size_t name_end = json.find('"', pos + 1);
    const std::size_t colon = json.find(':', name_end);
    if (name_end == std::string::npos || colon == std::string::npos) break;
    const std::string name = json.substr(pos + 1, name_end - pos - 1);
    const char* first = json.data() + colon + 1;
    while (*first == ' ') ++first;
    std::int64_t value = 0;
    const auto parsed = std::from_chars(first, json.data() + json.size(), value);
    if (parsed.ec != std::errc{}) {
      throw std::runtime_error("unreadable telemetry_json: " + json);
    }
    replay->sapd.add_count(name, value);
    if (name == "dp.states.peak") {
      replay->dp_states_peak = std::max(replay->dp_states_peak, value);
    }
    pos = static_cast<std::size_t>(parsed.ptr - json.data());
  }
}

void replay_one(const Item& item, const Record& record, std::int64_t id,
                Replay* replay) {
  // A cache hit carries the telemetry of the solve that filled the entry.
  if (item.fresh) add_sapd_counters(record.response.telemetry_json, replay);
  Tracer& tracer = replay->tracer;
  ScopedSpan root(&tracer, "replay", -1, id);
  const std::int64_t parent = root.index();
  {
    ScopedSpan span(&tracer, "io.digest", parent, id);
    (void)sap::canonical_digest(item.request.instance_text);
  }
  if (item.fresh) {  // cache misses are the requests sapd computes
    sap::PathInstance inst;
    {
      ScopedSpan span(&tracer, "io.parse", parent, id);
      inst = sap::path_instance_from_string(item.request.instance_text);
    }
    if (item.request.kind == SolveRequest::Kind::kPath) {
      sap::SolverParams params;
      params.eps = item.request.eps;
      params.seed = item.request.seed;
      sap::SapSolution sol;
      {
        sap::TelemetrySession session(&replay->solve);
        ScopedSpan span(&tracer, "core.solve_sap", parent, id);
        sol = sap::solve_sap(inst, params);
      }
      if (item.request.want_certificate) {
        sap::cert::CertifyOutcome outcome;
        {
          ScopedSpan span(&tracer, "cert.ladder", parent, id);
          outcome = sap::cert::certify_solution(
              inst, sol, sap::service::ServerOptions{}.certify);
        }
        for (const sap::cert::LadderRungAttempt& attempt :
             outcome.ladder.attempts) {
          Replay::Rung& rung = replay->rungs[static_cast<std::size_t>(attempt.rung)];
          rung.ms += 1e3 * attempt.seconds;
          rung.attempts += attempt.applicable ? 1 : 0;
          rung.proved += attempt.proved ? 1 : 0;
        }
        if (outcome.certified) {
          ScopedSpan span(&tracer, "cert.check", parent, id);
          (void)sap::cert::check_certificate(inst, sol, outcome.cert);
        }
      }
    } else {
      const bool ufp = item.request.kind == SolveRequest::Kind::kRoundUfp;
      ScopedSpan span(&tracer, ufp ? "round.ufp" : "round.sap", parent, id);
      (void)(ufp ? sap::round::solve_round_ufp_approx(inst)
                 : sap::round::solve_round_sap_approx(inst));
    }
  }
  std::string bytes;
  {
    ScopedSpan span(&tracer, "io.encode", parent, id);
    bytes = sap::service::encode_solve_response(record.response);
  }
  {
    ScopedSpan span(&tracer, "io.decode", parent, id);
    (void)sap::service::parse_solve_response(bytes);
  }
}

// ---------------------------------------------------------------------------
// Timed phases.

/// Everything a timed phase produced.
struct PhaseResult {
  std::vector<double> latency_ms;  ///< every ok reply's round trip
  std::uint64_t unrecorded = 0;    ///< ok replies beyond the sample store
  std::vector<Record> kept;        ///< replies left for the checker
  std::vector<Record> first_lap;   ///< lap workloads: the replies of lap 0
  std::vector<std::string> errors;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::size_t laps = 0;
  double seconds = 0;
  /// Traced phases only.
  std::vector<Replay> replays;        ///< one per caller
  std::vector<double> miss_overhead_ms;  ///< round trip − wall_micros
  std::size_t queue_depth_max = 0;
};

/// A started server plus its connected callers and warm-up replies.
struct Env {
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<Server> server;
  std::vector<Client> clients;
  std::vector<Record> warm;  ///< index = warm-up item
  std::vector<std::string> errors;
  std::string journal;

  ~Env() {
    if (server) server->stop();
    if (!journal.empty()) {
      std::error_code ec;
      std::filesystem::remove(journal, ec);
      std::filesystem::remove(journal + ".tmp", ec);
    }
  }
};

/// Sends one request; an exception or typed error lands in `errors`.
bool send(Client& client, const Item& item, SolveResponse* out,
          std::vector<std::string>* errors) {
  try {
    Client::SolveOutcome outcome = client.solve(item.request);
    if (outcome.ok) {
      *out = std::move(outcome.response);
      return true;
    }
    errors->push_back(std::string("typed error ") +
                      sap::service::error_code_name(outcome.error_code) +
                      ": " + outcome.error_message);
  } catch (const std::exception& e) {
    errors->push_back(std::string("transport: ") + e.what());
  }
  return false;
}

/// Set-up: input generation, server start (journal open included),
/// caller connections and warm-up. Returns its wall time in seconds.
double set_up(const WorkloadSpec& spec, const Args& args, Env* env) {
  const Clock::time_point start = Clock::now();
  env->inputs = std::make_unique<Inputs>(spec, args.seed);
  if (spec.journal) {
    env->journal = args.work_dir + "/" + spec.name + "-" +
                   std::to_string(::getpid()) + ".journal";
    std::filesystem::remove(env->journal);
  }
  env->server =
      std::make_unique<Server>(server_options(spec, env->journal));
  env->server->start();
  env->clients.resize(spec.callers);
  for (Client& client : env->clients) {
    client.connect("127.0.0.1", env->server->port());
  }
  // Arena growth and cache warm-up belong to set-up, not to the timed loop.
  for (const Item& item : env->inputs->warmup()) {
    Record record;
    record.item = without_text(item);
    const Clock::time_point t0 = Clock::now();
    if (send(env->clients[0], item, &record.response, &env->errors)) {
      record.rtt_ms = ms_since(t0, Clock::now());
    }
    env->warm.push_back(std::move(record));
  }
  return seconds_since(start);
}

/// Lap workloads: whole laps over the E6 pool by one caller until both
/// `seconds` and `min_laps` are reached.
PhaseResult run_laps(Env& env, double seconds, std::size_t min_laps,
                     std::size_t lap_offset, bool traced) {
  PhaseResult out;
  if (traced) out.replays.resize(1);
  Tracer* tracer = traced ? &out.replays[0].tracer : nullptr;
  Client& client = env.clients[0];
  const Clock::time_point start = Clock::now();
  std::int64_t id = 0;
  while (out.laps < min_laps || seconds_since(start) < seconds) {
    for (const Item& item : env.inputs->lap(lap_offset + out.laps)) {
      Record record;
      const Clock::time_point t0 = Clock::now();
      bool ok = false;
      {
        ScopedSpan span(tracer, "client.solve", -1, id);
        ok = send(client, item, &record.response, &out.errors);
      }
      record.rtt_ms = ms_since(t0, Clock::now());
      ++out.sent;
      if (traced) {
        out.queue_depth_max = std::max(
            out.queue_depth_max, env.server->stats_snapshot().queue_depth);
      }
      if (ok) {
        ++out.ok;
        out.latency_ms.push_back(record.rtt_ms);
        if (traced) {
          out.miss_overhead_ms.push_back(
              record.rtt_ms - 1e-3 * static_cast<double>(record.response.wall_micros));
          replay_one(item, record, id, &out.replays[0]);
        }
        record.item = without_text(item);
        if (out.laps == 0) out.first_lap.push_back(record);
        out.kept.push_back(std::move(record));
      }
      ++id;
    }
    ++out.laps;
  }
  out.seconds = seconds_since(start);
  return out;
}

/// Stream workloads keep every latency sample in storage touched before
/// timing starts, sized for this many replies per caller and second, so
/// memory does not grow with throughput.
constexpr double kMaxRepliesPerCallerSecond = 50'000;

/// serve_mixed: every caller streams its own request sequence until the
/// time is up and it has sent `min_requests`. Working-set replies must
/// match their verified warm-up reply byte for byte. The first reply per
/// fresh instance is kept for the checker; later cycles over the same
/// instance (new seed, so still a miss) must match it byte for byte.
PhaseResult run_stream(Env& env, double seconds, std::size_t min_requests,
                       std::size_t first_request, bool traced) {
  const std::size_t callers = env.clients.size();
  const auto capacity = min_requests + static_cast<std::size_t>(
                                           std::ceil(seconds * kMaxRepliesPerCallerSecond));
  std::vector<PhaseResult> parts(callers);
  for (PhaseResult& part : parts) {
    part.latency_ms.assign(capacity, 0);
    if (traced) part.replays.resize(1);
  }
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (std::size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      PhaseResult& part = parts[c];
      Tracer* tracer = traced ? &part.replays[0].tracer : nullptr;
      Client& client = env.clients[c];
      std::unordered_map<std::size_t, std::size_t> first_reply;  // -> kept
      Item scratch;
      std::size_t fresh_sent = first_request;  // later phases: new misses
      std::size_t recorded = 0;
      for (std::size_t r = 0;; ++r) {
        const Clock::time_point t0 = Clock::now();
        if (r >= min_requests && t0 >= stop) break;
        const Item& item =
            env.inputs->next(c, first_request + r, &fresh_sent, &scratch);
        const auto id = static_cast<std::int64_t>(r);
        Record record;
        bool ok = false;
        {
          ScopedSpan span(tracer, "client.solve", -1, id);
          ok = send(client, item, &record.response, &part.errors);
        }
        record.rtt_ms = ms_since(t0, Clock::now());
        ++part.sent;
        if (traced && c == 0 && r % 32 == 0) {
          part.queue_depth_max = std::max(
              part.queue_depth_max, env.server->stats_snapshot().queue_depth);
        }
        if (!ok) continue;
        const SolveResponse* expected = nullptr;
        if (!item.fresh) {
          expected = &env.warm[item.slot].response;
        } else if (const auto it = first_reply.find(item.instance);
                   it != first_reply.end()) {
          expected = &part.kept[it->second].response;
        }
        if (expected != nullptr &&
            (record.response.solution_text != expected->solution_text ||
             record.response.weight != expected->weight ||
             record.response.rounds != expected->rounds)) {
          part.errors.push_back("reply differs from the verified reply to "
                                "the same instance");
          continue;
        }
        ++part.ok;
        if (recorded < capacity) {
          part.latency_ms[recorded++] = record.rtt_ms;
        } else {
          ++part.unrecorded;
        }
        if (traced) {
          if (item.fresh) {
            part.miss_overhead_ms.push_back(
                record.rtt_ms -
                1e-3 * static_cast<double>(record.response.wall_micros));
          }
          replay_one(item, record, id, &part.replays[0]);
        }
        if (expected == nullptr) {
          record.item = without_text(item);
          first_reply.emplace(item.instance, part.kept.size());
          part.kept.push_back(std::move(record));
        }
      }
      part.latency_ms.resize(recorded);
    });
  }
  for (std::thread& thread : threads) thread.join();
  PhaseResult out;
  out.seconds = seconds_since(start);
  for (PhaseResult& part : parts) {
    out.sent += part.sent;
    out.ok += part.ok;
    out.unrecorded += part.unrecorded;
    out.queue_depth_max = std::max(out.queue_depth_max, part.queue_depth_max);
    out.latency_ms.insert(out.latency_ms.end(), part.latency_ms.begin(),
                          part.latency_ms.end());
    out.miss_overhead_ms.insert(out.miss_overhead_ms.end(),
                                part.miss_overhead_ms.begin(),
                                part.miss_overhead_ms.end());
    std::move(part.kept.begin(), part.kept.end(), std::back_inserter(out.kept));
    out.errors.insert(out.errors.end(), part.errors.begin(), part.errors.end());
    std::move(part.replays.begin(), part.replays.end(),
              std::back_inserter(out.replays));
  }
  return out;
}

/// Span files keep the first this many spans per caller (the metrics use
/// all).
constexpr std::size_t kMaxSpansWritten = 50'000;

/// serve_mixed: requests each caller sends in the traced half.
constexpr std::size_t kTracedPerCaller = 1000;

/// Phase 0 is timed; phase 1 is the traced half of a traced run, which
/// sends one lap (lap workloads) or kTracedPerCaller requests per caller
/// and replays every one of them. Phase 1 starts deeper in the request
/// sequence, so its requests are cache misses again.
PhaseResult run_phase(const WorkloadSpec& spec, Env& env, double seconds,
                      std::size_t min_laps, std::size_t phase) {
  const bool traced = phase == 1;
  if (spec.laps) {
    return run_laps(env, traced ? 0 : seconds, traced ? 1 : min_laps,
                    phase * 100'000, traced);
  }
  return run_stream(env, traced ? 0 : seconds, traced ? kTracedPerCaller : 0,
                    phase * 10'000'000, traced);
}

double throughput(const PhaseResult& phase) {
  return phase.seconds > 0 ? static_cast<double>(phase.ok) / phase.seconds : 0;
}

/// Runs the checker over `records`; returns the failures.
std::uint64_t check_all(Checker& checker, const std::vector<Record>& records,
                        std::vector<std::string>* errors) {
  std::uint64_t failed = 0;
  for (const Record& record : records) {
    if (record.response.solution_text.empty()) continue;  // send failed
    std::string why;
    try {
      why = checker.check(record.item, record.response);
    } catch (const std::exception& e) {
      why = std::string("unreadable reply: ") + e.what();
    }
    if (why.empty()) continue;
    ++failed;
    errors->push_back(why);
  }
  return failed;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            fmt_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void print_meta(const WorkloadSpec& spec, const Args& args) {
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::printf(
      "# meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %ld, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"callers\": %zu, "
      "\"shards\": %zu, \"solver_threads_per_shard\": 1, \"event_loop\": 1, "
      "\"tail_percentile\": %d}\n",
      spec.name, static_cast<unsigned long long>(args.seed),
      fmt_number(args.seconds).c_str(), args.trace ? 1 : 0, nproc,
      SAPBENCH_COMPILER, SAPBENCH_BUILD_TYPE, args.git_sha.c_str(),
      spec.callers, spec.shards, spec.tail_percentile);
}

void print_errors(const std::vector<std::string>& errors) {
  std::map<std::string, int> counts;
  for (const std::string& e : errors) ++counts[e];
  for (const auto& [what, n] : counts) {
    std::fprintf(stderr, "sapd_bench: %d x %s\n", n, what.c_str());
  }
}

/// Quality metrics: lap workloads over lap 0, serve_mixed over the fixed
/// working set's verified replies. Both are the same for every seed.
Quality quality_of(Checker& checker, const WorkloadSpec& spec, const Env& env,
                   const PhaseResult& phase) {
  Quality quality;
  for (const Record& record : spec.laps ? phase.first_lap : env.warm) {
    checker.add_quality(record.item, record.response, &quality);
  }
  return quality;
}

std::vector<Metric> layer_metrics(const Env& env, const PhaseResult& plain,
                                  const PhaseResult& traced,
                                  const sap::service::ServerStats& before,
                                  const sap::service::ServerStats& after,
                                  std::uint64_t rounds) {
  Replay replay;
  std::map<std::string, double> span_total;
  std::size_t spans = 0;
  for (const Replay& part : traced.replays) {
    replay.merge(part);
    for (const auto& [name, ms] : part.tracer.total_ms()) span_total[name] += ms;
    spans += part.tracer.spans().size();
  }
  auto span_ms = [&](const char* name) {
    const auto it = span_total.find(name);
    return it == span_total.end() ? 0.0 : it->second;
  };
  auto timer_ms = [&](const char* name) {
    return 1e3 * replay.solve.timer(name).seconds;
  };
  auto count = [&](const char* name) {
    return static_cast<double>(replay.sapd.count(name));
  };

  std::vector<Metric> m;
  // service: counters as deltas over the traced half.
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  const double requests = static_cast<double>(std::max<std::uint64_t>(1, traced.sent));
  auto rejected = [](const sap::service::ServerStats& s) {
    return s.requests_bad + s.requests_overloaded + s.requests_shutting_down +
           s.requests_internal_error + s.requests_deadline_exceeded;
  };
  const double traced_p50 = median(traced.latency_ms);
  m.push_back({"service.overhead_p50_ms", median(traced.miss_overhead_ms), "ms"});
  // sapd's latency reservoir keeps its most recent 4096 requests; the client
  // side takes every request since start: warm-up and both halves.
  std::vector<double> client_ms = plain.latency_ms;
  client_ms.insert(client_ms.end(), traced.latency_ms.begin(), traced.latency_ms.end());
  for (const Record& record : env.warm) client_ms.push_back(record.rtt_ms);
  m.push_back({"service.server_p50_ms", after.latency_p50_ms, "ms"});
  m.push_back({"service.server_p99_ms", after.latency_p99_ms, "ms"});
  m.push_back({"service.wire_p50_ms", median(client_ms) - after.latency_p50_ms, "ms"});
  m.push_back({"service.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"});
  m.push_back({"service.cache_hits", hits, "count"});
  m.push_back({"service.cache_misses", misses, "count"});
  m.push_back({"service.cache_coalesced", static_cast<double>(after.cache_coalesced - before.cache_coalesced), "count"});
  m.push_back({"service.cache_evictions", static_cast<double>(after.cache_evictions - before.cache_evictions), "count"});
  m.push_back({"service.journal_appends", static_cast<double>(after.cache_journal_appends - before.cache_journal_appends), "count"});
  m.push_back({"service.journal_compactions", static_cast<double>(after.cache_journal_compactions - before.cache_journal_compactions), "count"});
  m.push_back({"service.loop_wakeups_per_req", static_cast<double>(after.loop_wakeups - before.loop_wakeups) / requests, "count"});
  m.push_back({"service.queue_depth_max", static_cast<double>(traced.queue_depth_max), "count"});
  m.push_back({"service.rejected", static_cast<double>(rejected(after) - rejected(before)), "count"});

  m.push_back({"io.parse_ms", span_ms("io.parse"), "ms"});
  m.push_back({"io.digest_ms", span_ms("io.digest"), "ms"});
  m.push_back({"io.encode_ms", span_ms("io.encode"), "ms"});
  m.push_back({"io.decode_ms", span_ms("io.decode"), "ms"});

  // solve_sap's own stage timers.
  const double core_ms = timer_ms("sap.classify") + timer_ms("sap.stage.small") +
                         timer_ms("sap.stage.medium") + timer_ms("sap.stage.large");
  m.push_back({"core.classify_ms", timer_ms("sap.classify"), "ms"});
  m.push_back({"core.small_ms", timer_ms("sap.stage.small"), "ms"});
  m.push_back({"core.medium_ms", timer_ms("sap.stage.medium"), "ms"});
  m.push_back({"core.large_ms", timer_ms("sap.stage.large"), "ms"});
  m.push_back({"core.winner_small", count("sap.winner.small"), "count"});
  m.push_back({"core.winner_medium", count("sap.winner.medium"), "count"});
  m.push_back({"core.winner_large", count("sap.winner.large"), "count"});

  // dp.solve inside solve_sap, plus the ladder's exact_dp rung.
  const double solve_dp_ms = timer_ms("dp.solve");
  m.push_back({"exact.dp_ms", solve_dp_ms + replay.rungs[0].ms, "ms"});
  m.push_back({"exact.dp_runs", count("dp.runs"), "count"});
  m.push_back({"exact.dp_states_expanded", count("dp.states.expanded"), "count"});
  m.push_back({"exact.dp_states_peak", static_cast<double>(replay.dp_states_peak), "count"});
  m.push_back({"exact.dp_truncated", count("dp.truncated"), "count"});
  m.push_back({"exact.dp_share", core_ms > 0 ? solve_dp_ms / core_ms : 0, "ratio"});

  m.push_back({"cert.ladder_ms", span_ms("cert.ladder"), "ms"});
  m.push_back({"cert.check_ms", span_ms("cert.check"), "ms"});
  const char* rung_names[] = {"exact_dp", "ufpp_bnb", "lp_dual", "total_weight"};
  for (std::size_t r = 0; r < 3; ++r) {
    const Replay::Rung& rung = replay.rungs[r];
    const std::string base = std::string("cert.") + rung_names[r];
    m.push_back({base + "_ms", rung.ms, "ms"});
    m.push_back({base + "_attempts", static_cast<double>(rung.attempts), "count"});
    m.push_back({base + "_proved", static_cast<double>(rung.proved), "count"});
    m.push_back({base + "_proved_ratio",
                 rung.attempts > 0 ? static_cast<double>(rung.proved) /
                                         static_cast<double>(rung.attempts)
                                   : 0,
                 "ratio"});
  }
  for (const char* rung : rung_names) {
    m.push_back({std::string("cert.fired_") + rung,
                 count(("cert.ladder." + std::string(rung)).c_str()), "count"});
  }
  m.push_back({"lp.solves", count("lp.solves"), "count"});
  m.push_back({"lp.iterations", count("lp.iterations"), "count"});
  m.push_back({"round.ufp_ms", span_ms("round.ufp"), "ms"});
  m.push_back({"round.sap_ms", span_ms("round.sap"), "ms"});
  m.push_back({"round.rounds_total", static_cast<double>(rounds), "count"});
  m.push_back({"util.arena_chunks", count("alloc.arena.chunks"), "count"});
  m.push_back({"util.arena_chunk_bytes", count("alloc.arena.chunk_bytes"), "bytes"});

  // Tracing overhead: the traced half against the plain half before it.
  const double plain_rps = throughput(plain);
  const double plain_p50 = median(plain.latency_ms);
  m.push_back({"trace.overhead_throughput_pct", 100.0 * (plain_rps - throughput(traced)) / plain_rps, "%"});
  m.push_back({"trace.overhead_p50_pct", 100.0 * (traced_p50 - plain_p50) / plain_p50, "%"});
  m.push_back({"trace.spans", static_cast<double>(spans), "count"});
  return m;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::string names;
    for (const std::string& name : workload_names()) names += " " + name;
    throw std::invalid_argument("unknown workload '" + args.workload +
                                "' (want one of:" + names + ")");
  }
  if (const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
      nproc > 0 && spec->callers > static_cast<std::size_t>(nproc)) {
    throw std::runtime_error("workload needs more callers than CPUs");
  }
  std::filesystem::create_directories(args.work_dir);
  print_meta(*spec, args);
  const std::size_t min_laps = args.smoke ? 1 : spec->min_laps;

  // Set-up runs several times; each torn down but the last, which serves.
  const int setups = args.trace ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int i = 0; i < setups; ++i) {
    env = std::make_unique<Env>();  // tears the previous one down
    setup_s.push_back(set_up(*spec, args, env.get()));
  }
  Checker checker(*env->inputs);
  std::vector<std::string> errors = env->errors;
  std::uint64_t attempted = env->inputs->warmup().size();
  std::uint64_t failed = env->errors.size() + check_all(checker, env->warm, &errors);

  std::vector<Metric> metrics;
  std::uint64_t sent = 0, ok = 0;
  if (!args.trace) {
    const PhaseResult phase = run_phase(*spec, *env, args.seconds, min_laps, 0);
    const double rss_mb = peak_rss_mb();  // before the checker's own work
    sent = phase.sent;
    ok = phase.ok;
    attempted += phase.sent;
    failed += phase.sent - phase.ok;
    errors.insert(errors.end(), phase.errors.begin(), phase.errors.end());
    failed += check_all(checker, phase.kept, &errors);
    const Quality quality = quality_of(checker, *spec, *env, phase);
    const std::size_t samples = phase.latency_ms.size();
    const double tail = percentile(phase.latency_ms, spec->tail_percentile);
    const auto beyond_tail = std::count_if(
        phase.latency_ms.begin(), phase.latency_ms.end(),
        [tail](double ms) { return ms > tail; });
    std::printf("# samples %zu beyond_tail %td unrecorded %llu ok %llu laps %zu "
                "seconds %s table_checked_certificates %llu rounds_total %llu\n",
                samples, beyond_tail,
                static_cast<unsigned long long>(phase.unrecorded),
                static_cast<unsigned long long>(phase.ok), phase.laps,
                fmt_number(phase.seconds).c_str(),
                static_cast<unsigned long long>(checker.table_checked()),
                static_cast<unsigned long long>(quality.rounds_total));
    metrics = {
        {"throughput_rps", throughput(phase), "1/s"},
        {"latency_p50_ms", median(phase.latency_ms), "ms"},
        {"latency_tail_ms", tail, "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"weight_total", static_cast<double>(quality.weight_total), "weight"},
        {"cert_ub_ratio",
         quality.weight_total > 0 ? static_cast<double>(quality.ub_total) /
                                        static_cast<double>(quality.weight_total)
                                  : 0,
         "ratio"},
    };
  } else {
    // Plain half, then the traced half; end-to-end numbers never come from
    // the traced half, which yields the layer metrics and, against the
    // plain half, the tracing overhead.
    const PhaseResult plain = run_phase(*spec, *env, args.seconds / 2, 1, 0);
    const sap::service::ServerStats before = env->server->stats_snapshot();
    const PhaseResult traced = run_phase(*spec, *env, 0, 1, 1);
    const sap::service::ServerStats after = env->server->stats_snapshot();
    for (const PhaseResult* phase : {&plain, &traced}) {
      sent += phase->sent;
      ok += phase->ok;
      attempted += phase->sent;
      failed += phase->sent - phase->ok;
      errors.insert(errors.end(), phase->errors.begin(), phase->errors.end());
      failed += check_all(checker, phase->kept, &errors);
    }
    const Quality quality = quality_of(checker, *spec, *env, plain);
    metrics = layer_metrics(*env, plain, traced, before, after, quality.rounds_total);
    const std::string stem = args.work_dir + "/" + spec->name + "-seed" +
                             std::to_string(args.seed);
    for (std::size_t c = 0; c < traced.replays.size(); ++c) {
      const std::string path = stem + ".caller" + std::to_string(c) + ".jsonl";
      if (!traced.replays[c].tracer.write_jsonl(path, kMaxSpansWritten)) {
        std::fprintf(stderr, "sapd_bench: cannot write %s\n", path.c_str());
      }
    }
  }
  std::printf("# requests workload=%s sent=%llu ok=%llu failed=%llu\n",
              spec->name, static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(failed));
  print_errors(errors);
  env.reset();  // stop the server before reporting
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sapbench

int main(int argc, char** argv) {
  try {
    return sapbench::run(sapbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sapd_bench: %s\n", e.what());
    return 2;
  }
}
