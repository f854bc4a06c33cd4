#ifndef MUFUZZ_BENCH_BENCH_UTIL_H_
#define MUFUZZ_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "corpus/datasets.h"
#include "engine/fuzz_service.h"
#include "fuzzer/campaign.h"
#include "lang/compiler.h"

namespace mufuzz::bench {

/// Compiles a corpus entry; prints and skips on failure (should not happen —
/// the test suite compiles every corpus source).
inline std::optional<lang::ContractArtifact> CompileEntry(
    const corpus::CorpusEntry& entry) {
  auto result = lang::CompileContract(entry.source);
  if (!result.ok()) {
    std::fprintf(stderr, "[bench] compile failed for %s: %s\n",
                 entry.name.c_str(), result.status().ToString().c_str());
    return std::nullopt;
  }
  return std::move(result).value();
}

/// Runs one fuzzing campaign over one corpus entry — the single-contract
/// counterpart of MakeDatasetJobs + RunJobs, for one-off explorations and
/// bench prototyping. Empty on compile failure — callers must skip, never
/// average in a zeroed row (JobOutcome carries the same contract).
inline std::optional<fuzzer::CampaignResult> RunOne(
    const corpus::CorpusEntry& entry, const fuzzer::StrategyConfig& strategy,
    int execs, uint64_t seed) {
  auto artifact = CompileEntry(entry);
  if (!artifact.has_value()) return std::nullopt;
  fuzzer::CampaignConfig config;
  config.strategy = strategy;
  config.seed = seed;
  config.max_executions = execs;
  return fuzzer::RunCampaign(*artifact, config);
}

/// One job per dataset entry, seeded `base_seed + index` — the seeds the
/// serial benches always used, so service and serial runs agree
/// bit-for-bit.
inline std::vector<engine::FuzzJob> MakeDatasetJobs(
    const std::vector<corpus::CorpusEntry>& dataset,
    const fuzzer::StrategyConfig& strategy, int execs, uint64_t base_seed) {
  std::vector<engine::FuzzJob> jobs;
  jobs.reserve(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    engine::FuzzJob job;
    job.name = dataset[i].name;
    job.source = dataset[i].source;
    job.config.strategy = strategy;
    job.config.seed = base_seed + i;
    job.config.max_executions = execs;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Mean final coverage of `strategy` across a dataset.
struct AggregateCoverage {
  double mean_final = 0;
  /// Average coverage at each normalized curve point (resampled to
  /// `points` buckets over the execution budget).
  std::vector<double> curve;
};

/// Runs `jobs` on one FuzzService: submits every job, then waits for each,
/// and returns the outcomes in job order. A rejected submission becomes an
/// error outcome in its job's slot. Outcomes are identical for any worker
/// count — the service determinism contract the CI diffs check.
inline std::vector<engine::JobOutcome> RunJobs(
    const std::vector<engine::FuzzJob>& jobs,
    const engine::ServiceOptions& options = engine::ServiceOptions()) {
  engine::FuzzService service(options);
  std::vector<engine::JobOutcome> outcomes(jobs.size());
  std::vector<std::pair<size_t, engine::JobTicket>> waits;
  for (size_t i = 0; i < jobs.size(); ++i) {
    auto ticket = service.Submit(jobs[i]);
    if (ticket.ok()) {
      waits.emplace_back(i, ticket.value());
    } else {
      outcomes[i].name = jobs[i].name;
      outcomes[i].error = ticket.status().ToString();
    }
  }
  for (const auto& [index, ticket] : waits) {
    outcomes[index] = service.Wait(ticket);
  }
  return outcomes;
}

/// One island group per dataset entry: `islands` campaigns fuzz the entry's
/// contract (compiled once) under seeds `base_seed + entry_index * islands
/// + island`, so any (entry, island) pair is reproducible in isolation, and
/// exchange top seeds every `exchange_interval` executions (RunIslandGroup).
/// The groups run on `workers` threads (<= 0 uses DefaultWorkerCount), each
/// taking the next group by an atomic index and writing its own result
/// slots. Outcomes come back in (entry, island) order, so they are
/// identical for any worker count.
inline std::vector<engine::JobOutcome> RunIslandGroups(
    const std::vector<corpus::CorpusEntry>& dataset,
    const fuzzer::CampaignConfig& base, uint64_t base_seed, int islands,
    int exchange_interval, int workers) {
  const size_t width = static_cast<size_t>(islands);
  std::vector<engine::JobOutcome> outcomes(dataset.size() * width);
  std::atomic<size_t> next{0};
  auto run_groups = [&] {
    for (size_t g = next++; g < dataset.size(); g = next++) {
      engine::JobOutcome* slots = &outcomes[g * width];
      std::vector<fuzzer::CampaignConfig> members(width, base);
      for (size_t k = 0; k < width; ++k) {
        slots[k].name = dataset[g].name + "#" + std::to_string(k);
        members[k].seed = base_seed + g * width + k;
      }
      auto artifact = lang::CompileContract(dataset[g].source);
      if (!artifact.ok()) {
        for (size_t k = 0; k < width; ++k) {
          slots[k].error = artifact.status().ToString();
        }
        continue;
      }
      std::vector<fuzzer::CampaignResult> results = fuzzer::RunIslandGroup(
          artifact.value(), members, exchange_interval);
      for (size_t k = 0; k < width; ++k) {
        slots[k].result = std::move(results[k]);
      }
    }
  };
  if (workers <= 0) workers = engine::DefaultWorkerCount();
  const size_t threads = std::min(static_cast<size_t>(workers),
                                  dataset.size());
  std::vector<std::thread> pool;
  for (size_t t = 1; t < threads; ++t) pool.emplace_back(run_groups);
  run_groups();
  for (std::thread& thread : pool) thread.join();
  return outcomes;
}

/// Fans the dataset across a FuzzService (`workers` <= 0 uses
/// DefaultWorkerCount / $MUFUZZ_WORKERS) and merges in job order, so the
/// aggregate is identical for any worker count. With `islands` > 1 (and
/// `exchange_interval` > 0) each entry becomes an island group run by
/// RunIslandGroups on `workers` threads instead, and every island is one
/// aggregate row — still worker-count independent, which is what the CI
/// bench-smoke migration diff checks. `fanout` sets every campaign's
/// speculative expansion width K — part of the reproducibility key, and
/// the aggregate stays identical across worker counts at any K (the
/// reproduce harness's fan-out leg diffs that).
inline AggregateCoverage AggregateOverDataset(
    const std::vector<corpus::CorpusEntry>& dataset,
    const fuzzer::StrategyConfig& strategy, int execs, uint64_t seed,
    int points = 20, int workers = 0, int islands = 1,
    int exchange_interval = 0, int fanout = 1) {
  AggregateCoverage agg;
  agg.curve.assign(points, 0);
  std::vector<engine::JobOutcome> outcomes;
  if (islands > 1) {
    fuzzer::CampaignConfig base;
    base.strategy = strategy;
    base.max_executions = execs;
    base.fanout = fanout;
    outcomes = RunIslandGroups(dataset, base, seed, islands,
                               exchange_interval, workers);
  } else {
    std::vector<engine::FuzzJob> jobs =
        MakeDatasetJobs(dataset, strategy, execs, seed);
    for (engine::FuzzJob& job : jobs) job.config.fanout = fanout;
    engine::ServiceOptions options;
    options.workers = workers;
    outcomes = RunJobs(jobs, options);
  }
  int counted = 0;
  for (const engine::JobOutcome& outcome : outcomes) {
    if (!outcome.result.has_value()) {
      std::fprintf(stderr, "[bench] skipping %s: %s\n",
                   outcome.name.c_str(), outcome.error.c_str());
      continue;
    }
    const fuzzer::CampaignResult& result = *outcome.result;
    if (result.total_jumpis == 0) continue;
    ++counted;
    agg.mean_final += result.branch_coverage;
    // Resample the curve to fixed buckets (step interpolation).
    for (int p = 0; p < points; ++p) {
      int target = (p + 1) * execs / points;
      double cov = 0;
      for (const auto& [at, value] : result.coverage_curve) {
        if (at <= target) cov = value;
      }
      agg.curve[p] += cov;
    }
  }
  if (counted > 0) {
    agg.mean_final /= counted;
    for (double& v : agg.curve) v /= counted;
  }
  return agg;
}

/// Milliseconds since `start`.
inline double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace mufuzz::bench

#endif  // MUFUZZ_BENCH_BENCH_UTIL_H_
