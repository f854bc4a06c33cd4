#ifndef MUFUZZ_BENCH_BENCH_UTIL_H_
#define MUFUZZ_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "corpus/datasets.h"
#include "engine/parallel_runner.h"
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
/// counterpart of MakeDatasetJobs + RunBatch, for one-off explorations and
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

/// One batch job per dataset entry, seeded `base_seed + index` — the seeds
/// the serial benches always used, so batch and serial runs agree
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

/// One archipelago per dataset entry: `islands` jobs fuzz the same contract
/// under distinct seeds and, when the runner enables migration, exchange
/// their top seeds every round. The entry index doubles as the island group
/// id; seeds are `base_seed + entry_index * islands + island` so any
/// (entry, island) pair is reproducible in isolation.
inline std::vector<engine::FuzzJob> MakeIslandJobs(
    const std::vector<corpus::CorpusEntry>& dataset,
    const fuzzer::StrategyConfig& strategy, int execs, uint64_t base_seed,
    int islands) {
  std::vector<engine::FuzzJob> jobs;
  jobs.reserve(dataset.size() * static_cast<size_t>(islands));
  for (size_t i = 0; i < dataset.size(); ++i) {
    for (int k = 0; k < islands; ++k) {
      engine::FuzzJob job;
      job.name = dataset[i].name + "#" + std::to_string(k);
      job.source = dataset[i].source;
      job.config.strategy = strategy;
      job.config.seed = base_seed + i * static_cast<uint64_t>(islands) +
                        static_cast<uint64_t>(k);
      job.config.max_executions = execs;
      job.island_group = static_cast<int>(i);
      jobs.push_back(std::move(job));
    }
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

/// Streams `jobs` into a live FuzzService one submission at a time, each
/// waited to completion before the next is admitted — the maximal
/// scheduling contrast with RunBatch's submit-all pattern (jobs never
/// coexist; the service repeatedly goes idle and re-wakes). Grouped jobs
/// (`island_group` >= 0) go through SubmitIslandGroup per group, also
/// sequentially. Outcomes come back in job order and must be bit-for-bit
/// what RunBatch produces for the same jobs — the service determinism
/// contract the CI reproduce harness diffs.
inline std::vector<engine::JobOutcome> StreamJobs(
    const std::vector<engine::FuzzJob>& jobs,
    const engine::ServiceOptions& options) {
  engine::FuzzService service(options);
  std::map<int, std::vector<size_t>> groups;
  std::vector<engine::JobOutcome> outcomes(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (options.exchange_interval > 0 && jobs[i].island_group >= 0) {
      groups[jobs[i].island_group].push_back(i);
      continue;
    }
    auto ticket = service.Submit(jobs[i]);
    if (ticket.ok()) {
      outcomes[i] = service.Wait(ticket.value());
    } else {
      outcomes[i].name = jobs[i].name;
      outcomes[i].error = ticket.status().ToString();
    }
  }
  for (const auto& [group_id, indices] : groups) {
    std::vector<engine::FuzzJob> members;
    for (size_t index : indices) members.push_back(jobs[index]);
    auto group = service.SubmitIslandGroup(std::move(members));
    if (!group.ok()) {
      for (size_t index : indices) {
        outcomes[index].name = jobs[index].name;
        outcomes[index].error = group.status().ToString();
      }
      continue;
    }
    for (size_t k = 0; k < indices.size(); ++k) {
      outcomes[indices[k]] = service.Wait(group.value().members[k]);
    }
  }
  return outcomes;
}

/// Fans the dataset across the parallel runner (`workers` <= 0 uses
/// DefaultWorkerCount / $MUFUZZ_WORKERS) and merges in job order, so the
/// aggregate is identical for any worker count. With `islands` > 1 and
/// `exchange_interval` > 0 each entry becomes an island group (every island
/// is one aggregate row) — still worker-count independent, which is what the
/// CI bench-smoke migration diff checks. With `stream` the jobs go through
/// a live FuzzService one at a time instead of the batch shim — identical
/// output by the service determinism contract (the reproduce harness diffs
/// the two). `fanout` > 0 overrides every job's speculative expansion
/// width K — like wave_size it is part of the reproducibility key, and like
/// wave_size the aggregate stays identical across worker counts (the
/// reproduce harness's fan-out leg diffs that).
inline AggregateCoverage AggregateOverDataset(
    const std::vector<corpus::CorpusEntry>& dataset,
    const fuzzer::StrategyConfig& strategy, int execs, uint64_t seed,
    int points = 20, int workers = 0, int islands = 1,
    int exchange_interval = 0, int migration_top_k = 2, int wave_size = 0,
    bool stream = false, int fanout = 0) {
  AggregateCoverage agg;
  agg.curve.assign(points, 0);
  std::vector<engine::FuzzJob> jobs =
      islands > 1
          ? MakeIslandJobs(dataset, strategy, execs, seed, islands)
          : MakeDatasetJobs(dataset, strategy, execs, seed);
  std::vector<engine::JobOutcome> outcomes;
  if (stream) {
    engine::ServiceOptions options;
    options.workers = workers;
    options.exchange_interval = exchange_interval;
    options.migration_top_k = migration_top_k;
    options.wave_size = wave_size;
    options.fanout = fanout;
    outcomes = StreamJobs(jobs, options);
  } else {
    engine::RunnerOptions options;
    options.workers = workers;
    options.exchange_interval = exchange_interval;
    options.migration_top_k = migration_top_k;
    options.wave_size = wave_size;
    options.fanout = fanout;
    outcomes = engine::RunBatch(jobs, options);
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
