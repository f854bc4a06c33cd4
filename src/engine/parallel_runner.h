#ifndef MUFUZZ_ENGINE_PARALLEL_RUNNER_H_
#define MUFUZZ_ENGINE_PARALLEL_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/fuzz_service.h"

namespace mufuzz::engine {

/// Batch-mode knobs — the ServiceOptions subset the pre-service runner
/// exposed, kept field-for-field so call sites port mechanically.
struct RunnerOptions {
  /// Worker threads; <= 0 means DefaultWorkerCount().
  int workers = 0;
  /// Lease execution sessions from a shared pool and reuse them across
  /// jobs instead of allocating per campaign.
  bool reuse_sessions = true;
  /// Sequence executions each island runs between migration rounds for jobs
  /// with a non-negative `island_group`. 0 (default) disables migration —
  /// grouped jobs then run as standalone.
  int exchange_interval = 0;
  /// Seeds each island exports per migration round.
  int migration_top_k = 2;

  // ------------------------------------------------------- Wave pipeline --
  /// > 0 overrides every job's CampaignConfig::wave_size — the pipelined
  /// mode's wave width W. Campaign results depend on W (documented wave
  /// semantics) but never on worker counts.
  int wave_size = 0;
  /// > 0 overrides every job's CampaignConfig::fanout — the speculative
  /// multi-parent expansion width K. Like W, K is part of each job's
  /// reproducibility key; worker counts still never influence results.
  int fanout = 0;
};

/// Batch compatibility shim over FuzzService: Run() submits every job
/// (island groups via SubmitIslandGroup when `exchange_interval` > 0,
/// everything else standalone), waits for all of them, and returns the
/// outcomes in job order. All streaming semantics — interleaved standalone
/// and island rounds on one pool, per-job validation — come from the
/// service; the batch call adds nothing but the blocking convenience.
///
/// Determinism: each outcome is exactly what the same job produces when
/// streamed into a live service (or, for standalone jobs, what a plain
/// serial RunCampaign produces) — bit-for-bit, at any worker count. A job
/// that fails validation (see FuzzService::Submit) gets an error outcome
/// instead of being silently coerced; island groups are all-or-nothing per
/// group.
///
/// The service (its worker threads and session pool) persists
/// across Run() calls, so keeping one runner alive amortizes sessions over
/// many batches.
class ParallelRunner {
 public:
  explicit ParallelRunner(RunnerOptions options = RunnerOptions());

  std::vector<JobOutcome> Run(const std::vector<FuzzJob>& jobs);

  /// Backends created so far (pool diagnostics; fewer than jobs when a
  /// runner is kept across batches and sessions recycle).
  size_t sessions_created() const {
    return service_ != nullptr ? service_->sessions_created() : 0;
  }

  /// The underlying service (constructed on first Run), for callers that
  /// want to mix batch and streaming use.
  FuzzService* service() { return service_.get(); }

 private:
  FuzzService* EnsureService();

  RunnerOptions options_;
  std::unique_ptr<FuzzService> service_;
};

/// One-call convenience over ParallelRunner.
std::vector<JobOutcome> RunBatch(const std::vector<FuzzJob>& jobs,
                                 RunnerOptions options = RunnerOptions());

}  // namespace mufuzz::engine

#endif  // MUFUZZ_ENGINE_PARALLEL_RUNNER_H_
