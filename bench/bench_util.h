#ifndef MUFUZZ_BENCH_BENCH_UTIL_H_
#define MUFUZZ_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
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

/// One archipelago per dataset entry: `islands` consecutive jobs fuzz the
/// same contract under distinct seeds, and RunJobs with `group_size` =
/// `islands` submits them as one island group that exchanges top seeds
/// every round. Seeds are `base_seed + entry_index * islands + island` so
/// any (entry, island) pair is reproducible in isolation.
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

/// Runs `jobs` on one FuzzService: submits every job, then waits for each,
/// and returns the outcomes in job order. With `group_size` > 1, each run of
/// `group_size` consecutive jobs is one island group (SubmitIslandGroup;
/// `options.exchange_interval` must be > 0). A rejected submission becomes
/// an error outcome in its jobs' slots. Outcomes are identical for any
/// worker count — the service determinism contract the CI diffs check.
inline std::vector<engine::JobOutcome> RunJobs(
    const std::vector<engine::FuzzJob>& jobs,
    const engine::ServiceOptions& options = engine::ServiceOptions(),
    size_t group_size = 1) {
  engine::FuzzService service(options);
  std::vector<engine::JobOutcome> outcomes(jobs.size());
  std::vector<std::pair<size_t, engine::JobTicket>> waits;
  auto reject = [&](size_t first, size_t count, const Status& status) {
    for (size_t i = first; i < first + count; ++i) {
      outcomes[i].name = jobs[i].name;
      outcomes[i].error = status.ToString();
    }
  };
  group_size = std::max<size_t>(1, group_size);
  for (size_t first = 0; first < jobs.size(); first += group_size) {
    if (group_size == 1) {
      auto ticket = service.Submit(jobs[first]);
      if (ticket.ok()) {
        waits.emplace_back(first, ticket.value());
      } else {
        reject(first, 1, ticket.status());
      }
      continue;
    }
    const size_t count = std::min(group_size, jobs.size() - first);
    auto group = service.SubmitIslandGroup(
        {jobs.begin() + first, jobs.begin() + first + count});
    if (!group.ok()) {
      reject(first, count, group.status());
      continue;
    }
    for (size_t k = 0; k < count; ++k) {
      waits.emplace_back(first + k, group.value().members[k]);
    }
  }
  for (const auto& [index, ticket] : waits) {
    outcomes[index] = service.Wait(ticket);
  }
  return outcomes;
}

/// Fans the dataset across a FuzzService (`workers` <= 0 uses
/// DefaultWorkerCount / $MUFUZZ_WORKERS) and merges in job order, so the
/// aggregate is identical for any worker count. With `islands` > 1 (and
/// `exchange_interval` > 0) each entry becomes an island group, and every
/// island is one aggregate row — still worker-count independent, which is
/// what the CI bench-smoke migration diff checks. `fanout` sets every
/// job's speculative expansion width K — part of the reproducibility key,
/// and the aggregate stays identical across worker counts at any K (the
/// reproduce harness's fan-out leg diffs that).
inline AggregateCoverage AggregateOverDataset(
    const std::vector<corpus::CorpusEntry>& dataset,
    const fuzzer::StrategyConfig& strategy, int execs, uint64_t seed,
    int points = 20, int workers = 0, int islands = 1,
    int exchange_interval = 0, int migration_top_k = 2, int fanout = 1) {
  AggregateCoverage agg;
  agg.curve.assign(points, 0);
  std::vector<engine::FuzzJob> jobs =
      islands > 1
          ? MakeIslandJobs(dataset, strategy, execs, seed, islands)
          : MakeDatasetJobs(dataset, strategy, execs, seed);
  for (engine::FuzzJob& job : jobs) job.config.fanout = fanout;
  engine::ServiceOptions options;
  options.workers = workers;
  options.exchange_interval = exchange_interval;
  options.migration_top_k = migration_top_k;
  std::vector<engine::JobOutcome> outcomes =
      RunJobs(jobs, options, static_cast<size_t>(std::max(1, islands)));
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
