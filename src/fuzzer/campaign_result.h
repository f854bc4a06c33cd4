#ifndef MUFUZZ_FUZZER_CAMPAIGN_RESULT_H_
#define MUFUZZ_FUZZER_CAMPAIGN_RESULT_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "analysis/bug_types.h"
#include "evm/code_cache.h"
#include "fuzzer/seed_scheduler.h"

namespace mufuzz::fuzzer {

/// Everything a campaign produces — the raw material of every table/figure.
/// Lives in its own header so the feedback engine, the campaign, and the
/// FuzzService can all speak it without include cycles.
struct CampaignResult {
  /// Branch coverage over all JUMPI directions, in [0, 1].
  double branch_coverage = 0;
  /// Coverage restricted to user-level branches (if/while/for/require/
  /// transfer-check) — the source-level view used in the §V-E case study.
  double user_branch_coverage = 0;
  size_t covered_branches = 0;
  int total_jumpis = 0;
  /// (executions, coverage fraction) samples over the run.
  std::vector<std::pair<int, double>> coverage_curve;
  /// Deduplicated findings.
  std::vector<analysis::BugReport> bugs;
  std::set<analysis::BugClass> bug_classes;
  uint64_t executions = 0;
  uint64_t transactions = 0;
  uint64_t instructions = 0;
  /// Number of mask computations / masked mutations performed (diagnostics).
  uint64_t masks_computed = 0;
  /// Seed-queue lifetime counters for this campaign's island (admissions,
  /// rejections, evictions, migration traffic) — filled at finalization.
  SeedQueueStats queue_stats;
  /// Position within an island group (RunIslandGroup's member order), or
  /// -1 when the campaign ran standalone.
  int island_id = -1;
  /// True when the campaign was cancelled before exhausting its budget (the
  /// FuzzService round-boundary cancel path). A cancelled result is partial
  /// but valid: every counter, curve point, and bug report reflects the
  /// executions that actually completed.
  bool cancelled = false;
  /// Code-cache counters sampled at finalization. Diagnostics only: the
  /// cache is usually process-wide, so hits/misses depend on what else ran
  /// in the process (other campaigns, worker count) — which is why
  /// operator== below excludes this field.
  evm::CodeCacheStats code_cache;

  bool Found(analysis::BugClass bug) const {
    return bug_classes.contains(bug);
  }

  /// Field-for-field equality over the deterministic fields — what the
  /// determinism tests assert when they compare the serial path against the
  /// FuzzService. `code_cache` is deliberately excluded: cache traffic
  /// varies with scheduling and sharing, results must not.
  bool operator==(const CampaignResult& o) const {
    return branch_coverage == o.branch_coverage &&
           user_branch_coverage == o.user_branch_coverage &&
           covered_branches == o.covered_branches &&
           total_jumpis == o.total_jumpis &&
           coverage_curve == o.coverage_curve && bugs == o.bugs &&
           bug_classes == o.bug_classes && executions == o.executions &&
           transactions == o.transactions &&
           instructions == o.instructions &&
           masks_computed == o.masks_computed &&
           queue_stats == o.queue_stats && island_id == o.island_id &&
           cancelled == o.cancelled;
  }
};

}  // namespace mufuzz::fuzzer

#endif  // MUFUZZ_FUZZER_CAMPAIGN_RESULT_H_
