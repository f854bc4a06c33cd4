#ifndef MUFUZZ_ENGINE_FUZZ_SERVICE_H_
#define MUFUZZ_ENGINE_FUZZ_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "evm/execution_backend.h"
#include "fuzzer/campaign.h"
#include "fuzzer/sharded_seed_scheduler.h"
#include "lang/codegen.h"

namespace mufuzz::engine {

/// One unit of fuzzing work: fuzz one contract with one (strategy, seed)
/// configuration. Either `artifact` is set (pre-compiled, caller keeps
/// ownership and must outlive the job) or `source` is compiled by the
/// worker that picks the job up — which parallelizes compilation too.
struct FuzzJob {
  std::string name;    ///< label carried through to the outcome
  std::string source;  ///< compiled when `artifact` is null
  const lang::ContractArtifact* artifact = nullptr;
  fuzzer::CampaignConfig config;

  // ------------------------------------------------------- Multi-tenancy --
  /// Accounting identity for admission control, fair-share scheduling, and
  /// the per-tenant metrics plane. Empty maps to "default". Tenancy is
  /// scheduling-only: it decides *when* a job's slices run and whether the
  /// job is admitted at all, never what its campaign computes.
  std::string tenant;
  /// Fair-share tie-break among a tenant's own ready jobs (higher steps
  /// first; ties fall back to ticket order). Does not buy a tenant more
  /// aggregate share — that is the fair-share deficit's job.
  int priority = 0;
  /// Wall-clock budget in milliseconds, measured from admission. 0 = none.
  /// Expiry rides the Cancel path: the job stops at its next slice boundary
  /// with a partial-but-valid result flagged `cancelled` (or an empty
  /// result if the campaign never started), and the expiry is counted in
  /// ServiceStats::deadline_hits and flagged on the job's progress.
  uint64_t deadline_ms = 0;
};

/// What came back for one job. `result` is empty exactly when the job never
/// ran a campaign (compile failure, or cancelled before it started) — a
/// failed job can never be mistaken for a zero-coverage row. A job
/// cancelled mid-run has a partial-but-valid result with
/// `result->cancelled` set.
struct JobOutcome {
  std::string name;
  std::optional<fuzzer::CampaignResult> result;
  std::string error;  ///< compile diagnostics when `result` is empty
  /// Per-job *active* time: the sum of the job's setup, step and finalize
  /// slices on whichever workers ran them. Under the interleaved FuzzService
  /// scheduler this is NOT wall-clock between first and last touch — a job
  /// parks between slices while other jobs' slices run, and that parked
  /// time is excluded.
  double elapsed_ms = 0;
};

/// Handle for one submitted job. Tickets are issued densely from 1 per
/// service and are never reused.
using JobTicket = uint64_t;

/// Handle for one island archipelago: the member jobs' tickets, in
/// submission order (which is also island-id order).
struct GroupTicket {
  std::vector<JobTicket> members;
};

/// Where a job is in its service lifecycle.
enum class JobState {
  kUnknown,     ///< ticket was never issued by this service
  kQueued,      ///< admitted; compile/deploy has not finished yet
  kRunning,     ///< stepping (or finalizing) on the service workers
  kCancelling,  ///< cancel requested; stops at the next slice boundary
  kDone,        ///< outcome available; Wait() will not block
};

/// A progress snapshot for one job, taken between the job's slices (never
/// mid-slice — a slice boundary is the job's consistency point). On a
/// finished ticket, Poll keeps returning the final snapshot.
struct JobProgress {
  JobState state = JobState::kUnknown;
  uint64_t executions = 0;
  uint64_t transactions = 0;
  /// Branch-coverage fraction so far (final figure once done).
  double coverage = 0;
  /// Distinct (bug, pc) oracle findings so far.
  size_t bugs_found = 0;
  /// Completed step slices for a standalone job, migration rounds for an
  /// island member.
  int round_index = 0;
  /// Speculative fan-out (K) the job's campaign runs with — parents
  /// expanded per selection round.
  int fanout = 1;
  /// Parents in the campaign's parked speculative set at snapshot time
  /// (streamed standalone jobs park the whole set across slices; 0 for
  /// island members, whose rounds drain, and once the job is done).
  int parents_in_flight = 0;
  /// Executions run but not yet applied at snapshot time — one per parent
  /// with a child in flight. 0 once done.
  uint64_t inflight_executions = 0;
  /// Set once the job finished via the cancel path.
  bool cancelled = false;
  /// Set when the job's `deadline_ms` expired (the cancellation — counted
  /// in ServiceStats::deadline_hits — was deadline-initiated).
  bool deadline_expired = false;
  /// The service's slice counter (ServiceStats::rounds: slices completed so
  /// far) when the job's first step slice was picked (-1 until then). On a
  /// single worker it is a pure function of the submissions and the service
  /// options — what the fair-share ordering tests pin.
  int64_t first_step_round = -1;
  /// Code-cache counters of the job's backend at snapshot time (process-wide
  /// cache by default — diagnostics, not part of any reproducibility key).
  evm::CodeCacheStats code_cache;
  /// MUFUZZ_ALLOC_STATS counter (zero when the hook is compiled out): heap
  /// allocations since the campaign reached steady state. Process-wide
  /// counter — diagnostics, not part of any reproducibility key.
  uint64_t heap_allocs = 0;
};

/// FuzzService knobs. The island knobs (`exchange_interval`,
/// `migration_top_k`) are part of each island member's reproducibility key;
/// the scheduling knobs (`workers`, `round_quantum`, `step_slots`) never
/// influence results. Every campaign knob lives on the job's own
/// CampaignConfig.
struct ServiceOptions {
  /// Service worker threads running job slices; <= 0 means
  /// DefaultWorkerCount().
  int workers = 0;
  /// Sequence executions each island runs between migration rounds —
  /// SubmitIslandGroup requires it > 0.
  int exchange_interval = 0;
  /// Seeds each island exports per migration round.
  int migration_top_k = 2;
  /// Executions a standalone job advances per step slice — the
  /// progress/cancel/fair-share granularity. Scheduling-only: the streamed
  /// campaign suspends (never drains) at slice boundaries, so results are
  /// identical for any quantum (unlike islands' exchange_interval, which is
  /// a real round barrier and part of the semantics). Clamped to >= 1.
  int round_quantum = 128;

  // -------------------------------------------- Admission & multi-tenancy --
  /// Upper bound on *live* (admitted, not yet done) jobs across all
  /// tenants; a Submit past the bound is rejected with ResourceExhausted
  /// instead of buffering unboundedly. 0 = unbounded.
  size_t max_live_jobs = 0;
  /// Same bound per tenant. 0 = unbounded.
  size_t max_live_jobs_per_tenant = 0;
  /// Cap on step slices (standalone quanta and island group rounds) running
  /// at the same time; setup and finalize slices are never capped. Which
  /// job a free worker steps is decided by the fair-share rule (see
  /// "Scheduling model" on FuzzService), so the cap bounds how many workers
  /// fuzz at once while tenants share them by deficit. Scheduling-only —
  /// results never depend on when a job's slices ran. 0 = no cap.
  int step_slots = 0;
  /// Emit a one-line metrics summary (executions/s, live jobs, queue
  /// depths, rejects, deadline hits) to stderr roughly this often, at
  /// slice ends. 0 = never.
  int metrics_log_interval_ms = 0;
  /// Construct the service paused: jobs are admitted (and admission bounds
  /// enforced) but no slice runs until Resume(). Lets tests build a
  /// deterministic backlog before scheduling starts.
  bool start_paused = false;
};

/// Point-in-time metrics for one tenant (ServiceStats::tenants entry).
struct TenantStats {
  std::string tenant;
  uint64_t submitted = 0;      ///< admission attempts (valid configs only)
  uint64_t admitted = 0;
  uint64_t rejected = 0;       ///< admission-control rejections
  uint64_t completed = 0;      ///< jobs that reached kDone
  uint64_t cancelled = 0;      ///< completions via the cancel path
  uint64_t deadline_hits = 0;  ///< cancellations initiated by a deadline
  uint64_t executions = 0;     ///< finished + live snapshot executions
  /// Fair-share deficit counter: executions' worth of step slices charged
  /// to the tenant so far (standalone quanta + island intervals).
  uint64_t stepped_quanta = 0;
  size_t live_jobs = 0;    ///< admitted, not yet done (queue depth now)
  size_t queued_jobs = 0;  ///< live jobs whose campaign is not stepping yet
};

/// Point-in-time service metrics — the metrics plane the STATS verb and the
/// periodic log line serve. Counters are monotone over the service's
/// lifetime; depths/rates are snapshots.
struct ServiceStats {
  uint64_t submitted = 0;        ///< admission attempts (valid configs only)
  uint64_t admitted = 0;
  uint64_t rejected_global = 0;  ///< rejected by the global live-job bound
  uint64_t rejected_tenant = 0;  ///< rejected by a per-tenant bound
  uint64_t completed = 0;
  uint64_t cancelled = 0;
  uint64_t deadline_hits = 0;
  /// Job slices (setup, step, finalize) completed by the service workers.
  uint64_t rounds = 0;
  size_t live_jobs = 0;
  size_t queued_jobs = 0;
  uint64_t executions = 0;  ///< finished jobs + live progress snapshots
  /// Throughput over the recent slice window (0 until two samples exist).
  double executions_per_sec = 0;
  size_t sessions_created = 0;  ///< session-pool diagnostics
  std::vector<TenantStats> tenants;  ///< sorted by tenant name
};

/// Worker threads to use by default: $MUFUZZ_WORKERS when set to a positive
/// integer, otherwise the hardware concurrency (min 1). A malformed value
/// (non-numeric, trailing garbage, zero/negative, out of range) is reported
/// once on stderr and ignored instead of silently falling through.
int DefaultWorkerCount();

/// A long-lived streaming fuzzing engine: submit jobs at any time, watch
/// their progress, cancel them, and collect outcomes. `workers` service
/// threads run whatever job slice is ready next, interleaving standalone
/// jobs and island archipelagos. These threads are the only parallelism:
/// each slice runs, execution included, on the one worker that picked it.
///
/// ## Scheduling model
///
/// Work is cut into *slices*. A standalone job has a setup slice (compile,
/// construct, seed corpus), step slices of `round_quantum` executions (the
/// campaign's suspended-pipeline streaming interface), and a finalize
/// slice. An island archipelago is one runnable unit: its setup slice
/// compiles and constructs every member, each step slice runs one
/// `exchange_interval` round on every active member in island-id order and
/// then the migration, and its finalize slice finalizes every member.
///
/// Each worker loops: under the service lock pick the next runnable slice,
/// run it with the lock released, settle that one job (stage change,
/// progress snapshot, completion), pick again. A job never runs two slices
/// at once, and nothing waits for any other job — there is no cross-job
/// barrier. One rule orders all three kinds of slice: the job whose tenant
/// has the least stepped work (`stepped_quanta`) first, then higher
/// priority, then lower ticket (an archipelago is ordered by its first
/// member). Picking a step slice charges its tenant the slice's executions,
/// so tenants share the workers by deficit, while within one tenant the
/// oldest job runs to completion first and only about `workers` campaigns
/// are live at a time. `step_slots` caps the step slices running at once.
///
/// A slice boundary is each job's consistency point: Poll() serves the last
/// between-slices snapshot, deadlines are checked whenever a worker picks,
/// and Cancel() takes effect at the job's next slice boundary, finalizing a
/// partial-but-valid result flagged `cancelled`.
///
/// ## Determinism contract
///
/// A job's result is a pure function of its own CampaignConfig —
/// independent of submission order, what else is running, worker
/// count, which worker ran which slice and when, `round_quantum`,
/// `step_slots`, and other jobs being cancelled around it. A streamed job
/// parks its whole speculative parent set (all K parents and their
/// unapplied children) across slice boundaries, and Cancel drains that set —
/// applying every executed child in (parent rank, child index) order —
/// before finalizing the partial result.
/// An island member's result is a pure function of its *group's* jobs and
/// the (exchange_interval, migration_top_k) pair — members are coupled by
/// seed migration, by design, but never coupled to jobs outside the group.
/// A standalone job reproduces a plain RunCampaign call bit for bit, however
/// it was submitted. CI checks all of this differentially.
/// Only *when* work runs depends on scheduling: `first_step_round`,
/// `ServiceStats::rounds` and the other counters are diagnostics.
///
/// ## Threads
///
/// Submit/Poll/Wait/Cancel are safe from any thread. Destruction cancels
/// whatever is still running (at its slice boundary), lets the workers
/// drain it, and joins them.
class FuzzService {
 public:
  explicit FuzzService(ServiceOptions options = ServiceOptions());
  ~FuzzService();

  FuzzService(const FuzzService&) = delete;
  FuzzService& operator=(const FuzzService&) = delete;

  /// Admits one standalone job. Fails — without admitting anything — on
  /// out-of-range config knobs: negative `fanout`, `initial_seeds`, or
  /// `max_executions` or `base_energy` below 1 on the job, or negative
  /// `migration_top_k` / `step_slots` / `metrics_log_interval_ms` on the
  /// service options.
  Result<JobTicket> Submit(FuzzJob job);

  /// Admits `jobs` as one island archipelago: members run in lockstep
  /// rounds of `exchange_interval` executions and exchange their top
  /// `migration_top_k` seeds between rounds, with island ids assigned in
  /// submission order. All-or-nothing: validation failure (everything
  /// Submit checks, plus `exchange_interval` must be > 0 and the group
  /// non-empty) admits no member.
  Result<GroupTicket> SubmitIslandGroup(std::vector<FuzzJob> jobs);

  /// The job's latest between-slices snapshot (final one once done;
  /// `state == kUnknown` for a ticket this service never issued).
  JobProgress Poll(JobTicket ticket) const;

  /// Blocks until the job finished and returns its outcome. Idempotent —
  /// outcomes (and final progress snapshots) are retained for the service's
  /// lifetime, so waiting twice returns the same outcome again. Compile
  /// products and the job's source are not: a finished job frees its
  /// artifact, AST and source, so it keeps only what Wait and Poll return.
  JobOutcome Wait(JobTicket ticket);

  /// Blocks until every job submitted so far finished; returns all their
  /// outcomes in ticket order (idempotent, like Wait).
  std::vector<JobOutcome> WaitAll();

  /// Requests cancellation: the job stops at its next slice boundary and
  /// finalizes a partial-but-valid result flagged `cancelled`. A job
  /// cancelled before its campaign ever started completes with an *empty*
  /// result and an explanatory error instead (the JobOutcome contract:
  /// never-ran jobs can't be mistaken for zero-coverage rows). No-op on a
  /// finished (or unknown) ticket. Cancelling an island member removes it
  /// from stepping but keeps its seed queue in the group's migration
  /// rounds (exactly like a member that exhausted its budget), so the
  /// survivors' schedule stays well-formed.
  void Cancel(JobTicket ticket);

  /// Cancels every member of a group.
  void CancelGroup(const GroupTicket& group);

  /// Requests cancellation of every live job (the server-shutdown path:
  /// unblocks Wait()ers bounded by one slice per job).
  void CancelAll();

  /// Starts the workers after a `start_paused` construction. Idempotent;
  /// no-op on a service that never paused.
  void Resume();

  /// Snapshot of the metrics plane (safe from any thread).
  ServiceStats Stats() const;

  /// Resolved worker-thread count.
  int workers() const { return workers_; }

  /// Session backends created so far (pool diagnostics).
  size_t sessions_created() const { return session_pool_.created(); }

 private:
  /// Service-internal job lifecycle (JobState is the public view).
  enum class Stage {
    kAdmitted,  ///< setup slice pending
    kActive,    ///< campaign built: stepping, or finalize pending
    kDone,
  };

  struct GroupRecord;
  struct TenantRecord;

  struct JobRecord {
    JobTicket ticket = 0;
    FuzzJob job;  ///< `source` is freed once the job is kDone
    Stage stage = Stage::kAdmitted;
    bool running = false;  ///< a slice of this standalone job is on a worker
    bool cancel_requested = false;
    bool finalize_cancelled = false;  ///< finalize via the cancel path
    JobProgress progress;
    JobOutcome outcome;
    double active_ms = 0;
    int rounds = 0;  ///< completed standalone step slices
    std::string tenant;  ///< resolved ("" mapped to "default")
    TenantRecord* tenant_record = nullptr;  ///< tenants_ entry (stable)
    std::chrono::steady_clock::time_point admitted_at;
    bool deadline_hit = false;  ///< deadline expiry already counted

    // Filled by setup slices, freed again by FinalizeJob.
    std::optional<lang::ContractArtifact> compiled;
    const lang::ContractArtifact* artifact = nullptr;
    std::unique_ptr<evm::SessionBackend> session;  ///< pooled lease
    std::unique_ptr<fuzzer::Campaign> campaign;

    // Island members only.
    GroupRecord* group = nullptr;
    fuzzer::SeedScheduler* queue = nullptr;  ///< owned by group->sharder
    int island_id = -1;
  };

  struct GroupRecord {
    std::vector<JobRecord*> members;  ///< submission order
    std::unique_ptr<fuzzer::ShardedSeedScheduler> sharder;
    Stage stage = Stage::kAdmitted;  ///< kActive once the setup slice settled
    bool finishing = false;  ///< no member steps any more: finalize next
    bool running = false;    ///< a slice of this group is on a worker
    int migration_rounds = 0;
    int open_members = 0;  ///< members not yet kDone
  };

  /// Per-tenant accounting: admission counters for the metrics plane plus
  /// the fair-share deficit (`stepped_quanta`) the slice picker keys on.
  struct TenantRecord {
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;
    uint64_t cancelled = 0;
    uint64_t deadline_hits = 0;
    uint64_t completed_executions = 0;
    uint64_t stepped_quanta = 0;
    size_t live = 0;
  };

  /// One picked slice: a standalone job's, or an island group's together
  /// with the members it covers (in island-id order).
  struct Slice {
    enum class Kind { kSetup, kStep, kFinalize };
    Kind kind = Kind::kSetup;
    JobRecord* job = nullptr;
    GroupRecord* group = nullptr;
    /// Group slices: members to set up / step (or, when their
    /// `finalize_cancelled` is set, finalize) / finalize.
    std::vector<JobRecord*> members;
  };

  void WorkerMain();
  /// Picks the next runnable slice by the fair-share rule and marks its job
  /// running (requires mu_). Completes cancelled-before-start jobs and
  /// checks deadlines on the way. Returns false when nothing is runnable.
  bool PickSliceLocked(Slice* slice);
  /// Runs a picked slice (no lock held; touches only the slice's jobs).
  void RunSlice(const Slice& slice);
  /// Settles the slice's job (requires mu_): stage change, progress
  /// snapshot, completion, metrics sample.
  void SettleSliceLocked(const Slice& slice);

  // Slice bodies (no lock held).
  /// Adopts the job's pre-compiled artifact or compiles its source; on
  /// failure leaves `artifact` null with the diagnostics in
  /// `outcome.error`.
  void ResolveArtifact(JobRecord* r);
  void SetupStandalone(JobRecord* r);
  void SetupGroup(GroupRecord* group, const std::vector<JobRecord*>& members);
  void StepGroup(GroupRecord* group, const std::vector<JobRecord*>& members);
  void FinalizeJob(JobRecord* r);

  /// After a group slice settled: marks the group finishing once no member
  /// steps any more, and retires it once every member is done.
  void UpdateGroupLocked(GroupRecord* group);
  void SnapshotProgressLocked(JobRecord* r);
  void MarkDoneLocked(JobRecord* r);
  /// Completes a job that was cancelled before its campaign ever ran:
  /// empty-but-valid result, flagged cancelled.
  void CancelBeforeStartLocked(JobRecord* r);
  Status ValidateSubmission(const FuzzJob& job) const;
  /// Builds the record of an admitted job (requires mu_).
  std::unique_ptr<JobRecord> NewRecordLocked(FuzzJob job, std::string tenant);
  bool AllDoneLocked() const;
  /// Admission gate: checks the global and per-tenant live-job bounds for
  /// `incoming` more jobs of `tenant`, counting the attempt (and any
  /// rejection) in the metrics plane.
  Status AdmitLocked(const std::string& tenant, size_t incoming);
  /// Marks the job cancel-requested when its deadline expired (counted once).
  void CheckDeadlineLocked(JobRecord* r,
                           std::chrono::steady_clock::time_point now);
  /// Finished + live-snapshot executions across all jobs.
  uint64_t TotalExecutionsLocked() const;
  /// Appends a throughput sample and emits the periodic metrics log line.
  void SampleSliceLocked(std::chrono::steady_clock::time_point now);
  ServiceStats StatsLocked() const;

  ServiceOptions options_;
  int workers_ = 1;
  evm::SessionPool session_pool_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: runnable work / stop
  std::condition_variable done_cv_;  ///< waiters: a job reached kDone
  std::map<JobTicket, std::unique_ptr<JobRecord>> jobs_;
  std::vector<std::unique_ptr<GroupRecord>> groups_;
  /// Records not yet kDone / groups not yet retired: what a pick scans, so
  /// a long-lived service pays per-pick cost proportional to *live* work,
  /// not to everything ever submitted (jobs_ retains outcomes for
  /// Wait-idempotence).
  std::map<JobTicket, JobRecord*> live_jobs_;
  std::vector<GroupRecord*> live_groups_;
  JobTicket next_ticket_ = 1;
  bool stop_ = false;
  bool paused_ = false;  ///< start_paused and Resume() not called yet
  int idle_workers_ = 0;  ///< workers waiting on work_cv_
  int steps_running_ = 0;  ///< step slices on workers (the step_slots cap)

  // Metrics plane (all guarded by mu_). tenants_ is insert-only: a tenant's
  // counters survive its last job so STATS stays a lifetime view.
  std::map<std::string, TenantRecord> tenants_;
  uint64_t submitted_total_ = 0;
  uint64_t admitted_total_ = 0;
  uint64_t rejected_global_ = 0;
  uint64_t rejected_tenant_ = 0;
  uint64_t completed_total_ = 0;
  uint64_t cancelled_total_ = 0;
  uint64_t deadline_hits_ = 0;
  uint64_t completed_executions_ = 0;
  uint64_t rounds_done_ = 0;  ///< completed slices
  /// (time, total executions) ring for the executions/s window.
  std::deque<std::pair<std::chrono::steady_clock::time_point, uint64_t>>
      rate_samples_;
  std::chrono::steady_clock::time_point last_metrics_log_;

  std::vector<std::thread> threads_;
};

}  // namespace mufuzz::engine

#endif  // MUFUZZ_ENGINE_FUZZ_SERVICE_H_
