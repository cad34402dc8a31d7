// Tests for the parallel batch-solve harness: deterministic aggregate
// reports across thread counts, per-instance seeding, exception propagation
// from a poisoned instance, and the empty-sweep edge case.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/harness/batch_runner.hpp"

namespace sap {
namespace {

PathBatchConfig tiny_path_config() {
  PathBatchConfig config;
  config.gen.num_edges = 6;
  config.gen.num_tasks = 8;
  config.gen.min_capacity = 4;
  config.gen.max_capacity = 12;
  return config;
}

std::string deterministic_json(const BatchReport& report) {
  std::ostringstream os;
  BatchJsonOptions options;
  options.include_timings = false;
  options.include_cases = true;
  write_batch_json(os, report, options);
  return os.str();
}

TEST(BatchRunnerTest, CaseSeedIsBaseXorIndex) {
  EXPECT_EQ(batch_case_seed(0, 5), 5u);
  EXPECT_EQ(batch_case_seed(0xFF, 0x0F), 0xF0u);
  ThreadPool pool(2);
  BatchOptions options;
  options.num_instances = 9;
  options.base_seed = 1234;
  std::vector<std::uint64_t> seeds(options.num_instances);
  const BatchReport report = run_batch(
      options,
      [&](std::size_t index, std::uint64_t seed) {
        seeds[index] = seed;
        return BatchCase{};
      },
      pool);
  EXPECT_EQ(report.num_instances, 9u);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seeds[i], 1234u ^ i);
  }
}

TEST(BatchRunnerTest, AggregateReportIdenticalAcrossThreadCounts) {
  BatchOptions options;
  options.num_instances = 10;
  options.base_seed = 77;
  const BatchCaseFn fn = make_path_batch_case(tiny_path_config());

  std::vector<std::string> reports;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    reports.push_back(deterministic_json(run_batch(options, fn, pool)));
  }
  EXPECT_FALSE(reports[0].empty());
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);
  // And re-running on the same pool size reproduces the report exactly.
  ThreadPool pool(2);
  EXPECT_EQ(reports[0], deterministic_json(run_batch(options, fn, pool)));
}

TEST(BatchRunnerTest, DifferentBaseSeedChangesTheSweep) {
  const BatchCaseFn fn = make_path_batch_case(tiny_path_config());
  ThreadPool pool(2);
  BatchOptions options;
  options.num_instances = 10;
  options.base_seed = 77;
  const std::string a = deterministic_json(run_batch(options, fn, pool));
  options.base_seed = 78;
  const std::string b = deterministic_json(run_batch(options, fn, pool));
  EXPECT_NE(a, b);
}

TEST(BatchRunnerTest, PathSweepSolvesAndBoundsEveryInstance) {
  ThreadPool pool(4);
  BatchOptions options;
  options.num_instances = 12;
  options.base_seed = 5;
  const BatchReport report =
      run_batch(options, make_path_batch_case(tiny_path_config()), pool);
  EXPECT_EQ(report.solved, 12u);
  EXPECT_EQ(report.cases.size(), 12u);
  ASSERT_GT(report.ratio.count(), 0u);
  // The bound is an upper bound on OPT >= ALG, so every ratio is >= 1.
  EXPECT_GE(report.ratio.min(), 1.0);
  EXPECT_GE(report.ratio_p95, report.ratio_p50);
  // Tiny instances stay within the exact-oracle budget.
  EXPECT_EQ(report.bound_exact, 12u);
  // Telemetry reached the aggregate: one solve per instance.
  EXPECT_EQ(report.telemetry.timer("sap.solve").count, 12);
}

TEST(BatchRunnerTest, RingSweepSolvesEveryInstance) {
  RingBatchConfig config;
  config.gen.num_edges = 6;
  config.gen.num_tasks = 8;
  config.gen.min_capacity = 4;
  config.gen.max_capacity = 12;
  ThreadPool pool(2);
  BatchOptions options;
  options.num_instances = 6;
  options.base_seed = 11;
  const BatchReport report =
      run_batch(options, make_ring_batch_case(config), pool);
  EXPECT_EQ(report.solved, 6u);
  EXPECT_EQ(report.telemetry.count("ring.winner.path") +
                report.telemetry.count("ring.winner.cut"),
            6);
  EXPECT_GE(report.ratio.min(), 1.0);
}

TEST(BatchRunnerTest, RoundSweepSolvesEveryInstanceOnBothKinds) {
  // Round solves run concurrently across the pool (thread arenas, the DSA
  // slab arm, the SAP-probe oracle), so this doubles as the TSan coverage
  // for src/round.
  for (const round::RoundKind kind :
       {round::RoundKind::kUfp, round::RoundKind::kSap}) {
    RoundBatchConfig config;
    config.gen.base.num_edges = 5;
    config.gen.base.num_tasks = 7;
    config.kind = kind;
    ThreadPool pool(4);
    BatchOptions options;
    options.num_instances = 8;
    options.base_seed = 21;
    const BatchReport report =
        run_batch(options, make_round_batch_case(config), pool);
    EXPECT_EQ(report.solved, 8u);
    EXPECT_GE(report.ratio.min(), 1.0);
  }
}

TEST(BatchRunnerTest, PoisonedInstancePropagatesException) {
  ThreadPool pool(4);
  BatchOptions options;
  options.num_instances = 16;
  options.base_seed = 3;
  const BatchCaseFn poisoned = [](std::size_t index, std::uint64_t) {
    if (index == 7) throw std::runtime_error("poisoned instance");
    return BatchCase{};
  };
  EXPECT_THROW((void)run_batch(options, poisoned, pool), std::runtime_error);
  // The pool survives a poisoned sweep and runs the next one.
  std::atomic<int> ran{0};
  const BatchCaseFn counting = [&](std::size_t, std::uint64_t) {
    ran.fetch_add(1);
    return BatchCase{};
  };
  const BatchReport report = run_batch(options, counting, pool);
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(report.num_instances, 16u);
}

TEST(BatchRunnerTest, EmptySweepProducesValidReport) {
  ThreadPool pool(2);
  BatchOptions options;
  options.num_instances = 0;
  options.base_seed = 9;
  const BatchCaseFn must_not_run = [](std::size_t, std::uint64_t) -> BatchCase {
    ADD_FAILURE() << "case fn called on an empty sweep";
    return {};
  };
  const BatchReport report = run_batch(options, must_not_run, pool);
  EXPECT_EQ(report.num_instances, 0u);
  EXPECT_EQ(report.solved, 0u);
  EXPECT_EQ(report.ratio.count(), 0u);
  EXPECT_TRUE(report.telemetry.empty());

  // The JSON writer handles the empty aggregate (NaN percentiles -> null)
  // and stays deterministic.
  const std::string json = deterministic_json(report);
  EXPECT_NE(json.find("\"instances\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"p50\": null"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  ThreadPool other(8);
  EXPECT_EQ(json, deterministic_json(run_batch(options, must_not_run, other)));
}

}  // namespace
}  // namespace sap
