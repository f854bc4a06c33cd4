#include "engine/fuzz_service.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "lang/compiler.h"

namespace mufuzz::engine {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

int DefaultWorkerCount() {
  if (const char* env = std::getenv("MUFUZZ_WORKERS")) {
    char* end = nullptr;
    errno = 0;
    long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && errno != ERANGE && parsed > 0 &&
        parsed <= INT_MAX) {
      return static_cast<int>(parsed);
    }
    static const bool warned = [env] {
      std::fprintf(stderr,
                   "[mufuzz] ignoring MUFUZZ_WORKERS=\"%s\" (not a positive "
                   "integer); using hardware concurrency\n",
                   env);
      return true;
    }();
    (void)warned;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

FuzzService::FuzzService(ServiceOptions options) : options_(options) {
  workers_ = options_.workers > 0 ? options_.workers : DefaultWorkerCount();
  options_.round_quantum = std::max(1, options_.round_quantum);
  paused_ = options_.start_paused;
  last_metrics_log_ = Clock::now();
  threads_.reserve(static_cast<size_t>(workers_));
  for (int i = 0; i < workers_; ++i) {
    threads_.emplace_back([this] { WorkerMain(); });
  }
}

FuzzService::~FuzzService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    for (auto& [ticket, record] : live_jobs_) {
      record->cancel_requested = true;
    }
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

// ------------------------------------------------------------- Validation --

Status FuzzService::ValidateSubmission(const FuzzJob& job) const {
  if (options_.step_slots < 0) {
    return Status::InvalidArgument(
        "ServiceOptions::step_slots must be >= 0 (0 = no fair-share gate)");
  }
  if (options_.metrics_log_interval_ms < 0) {
    return Status::InvalidArgument(
        "ServiceOptions::metrics_log_interval_ms must be >= 0 (0 = no "
        "periodic log line)");
  }
  if (job.config.fanout < 0) {
    return Status::InvalidArgument("job \"" + job.name +
                                   "\": CampaignConfig::fanout must be >= 0 "
                                   "(0/1 = the serial parent chain)");
  }
  if (job.config.initial_seeds < 0) {
    return Status::InvalidArgument("job \"" + job.name +
                                   "\": CampaignConfig::initial_seeds must "
                                   "be >= 0");
  }
  if (job.config.max_executions < 0) {
    return Status::InvalidArgument(
        "job \"" + job.name +
        "\": CampaignConfig::max_executions must be >= 0");
  }
  // Energy below 1 grants no parent a child, so the campaign would plan
  // nothing and never reach its execution budget.
  if (job.config.base_energy < 1) {
    return Status::InvalidArgument(
        "job \"" + job.name + "\": CampaignConfig::base_energy must be >= 1");
  }
  return Status::OK();
}

// -------------------------------------------------------------- Admission --

namespace {

/// Canonical tenant key: the empty tenant is the "default" tenant.
std::string ResolveTenant(const std::string& tenant) {
  return tenant.empty() ? "default" : tenant;
}

}  // namespace

Status FuzzService::AdmitLocked(const std::string& tenant) {
  TenantRecord& record = tenants_[tenant];
  ++submitted_total_;
  ++record.submitted;
  if (options_.max_live_jobs > 0 &&
      live_jobs_.size() >= options_.max_live_jobs) {
    ++rejected_global_;
    ++record.rejected;
    return Status::ResourceExhausted(
        "global admission queue full (" + std::to_string(live_jobs_.size()) +
        " live jobs, bound " + std::to_string(options_.max_live_jobs) +
        "); retry after jobs drain");
  }
  if (options_.max_live_jobs_per_tenant > 0 &&
      record.live >= options_.max_live_jobs_per_tenant) {
    ++rejected_tenant_;
    ++record.rejected;
    return Status::ResourceExhausted(
        "tenant \"" + tenant + "\" admission queue full (" +
        std::to_string(record.live) + " live jobs, bound " +
        std::to_string(options_.max_live_jobs_per_tenant) +
        "); retry after this tenant's jobs drain");
  }
  ++admitted_total_;
  ++record.admitted;
  ++record.live;
  return Status::OK();
}

Result<JobTicket> FuzzService::Submit(FuzzJob job) {
  Status status = ValidateSubmission(job);
  if (!status.ok()) return status;
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) return Status::Internal("FuzzService is shutting down");
  std::string tenant = ResolveTenant(job.tenant);
  Status admitted = AdmitLocked(tenant);
  if (!admitted.ok()) return admitted;
  auto record = std::make_unique<JobRecord>();
  const JobTicket ticket = next_ticket_++;
  record->ticket = ticket;
  record->job = std::move(job);
  record->outcome.name = record->job.name;
  record->progress.state = JobState::kQueued;
  record->progress.fanout = std::max(1, record->job.config.fanout);
  record->tenant_record = &tenants_[tenant];
  record->tenant = std::move(tenant);
  record->admitted_at = Clock::now();
  live_jobs_.emplace(ticket, record.get());
  jobs_.emplace(ticket, std::move(record));
  if (idle_workers_ > 0) work_cv_.notify_one();
  return ticket;
}

// ----------------------------------------------------------- Client calls --

JobProgress FuzzService::Poll(JobTicket ticket) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(ticket);
  if (it == jobs_.end()) return JobProgress();  // state == kUnknown
  const JobRecord* record = it->second.get();
  JobProgress progress = record->progress;
  if (record->stage == Stage::kDone) {
    progress.state = JobState::kDone;
  } else if (record->cancel_requested) {
    progress.state = JobState::kCancelling;
  } else if (record->stage == Stage::kActive) {
    progress.state = JobState::kRunning;
  } else {
    progress.state = JobState::kQueued;
  }
  return progress;
}

JobOutcome FuzzService::Wait(JobTicket ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(ticket);
  if (it == jobs_.end()) {
    JobOutcome outcome;
    outcome.error = "unknown FuzzService ticket";
    return outcome;
  }
  JobRecord* record = it->second.get();
  done_cv_.wait(lock, [record] { return record->stage == Stage::kDone; });
  lock.unlock();
  // Copy outside mu_ (the workers need it to pick and settle slices): the
  // record is never erased and its outcome never changes once kDone.
  return record->outcome;
}

std::vector<JobOutcome> FuzzService::WaitAll() {
  std::vector<JobTicket> tickets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tickets.reserve(jobs_.size());
    for (const auto& [ticket, record] : jobs_) tickets.push_back(ticket);
  }
  std::vector<JobOutcome> outcomes;
  outcomes.reserve(tickets.size());
  for (JobTicket ticket : tickets) outcomes.push_back(Wait(ticket));
  return outcomes;
}

void FuzzService::Cancel(JobTicket ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(ticket);
  if (it == jobs_.end() || it->second->stage == Stage::kDone) return;
  it->second->cancel_requested = true;
  // A step the step_slots cap held back becomes an uncapped finalize.
  if (idle_workers_ > 0) work_cv_.notify_one();
}

void FuzzService::CancelAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [ticket, record] : live_jobs_) record->cancel_requested = true;
  work_cv_.notify_all();
}

void FuzzService::Resume() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  work_cv_.notify_all();
}

ServiceStats FuzzService::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return StatsLocked();
}

ServiceStats FuzzService::StatsLocked() const {
  ServiceStats stats;
  stats.submitted = submitted_total_;
  stats.admitted = admitted_total_;
  stats.rejected_global = rejected_global_;
  stats.rejected_tenant = rejected_tenant_;
  stats.completed = completed_total_;
  stats.cancelled = cancelled_total_;
  stats.deadline_hits = deadline_hits_;
  stats.rounds = rounds_done_;
  stats.live_jobs = live_jobs_.size();
  stats.executions = TotalExecutionsLocked();
  if (rate_samples_.size() >= 2) {
    const auto& first = rate_samples_.front();
    const auto& last = rate_samples_.back();
    double seconds =
        std::chrono::duration<double>(last.first - first.first).count();
    if (seconds > 0 && last.second >= first.second) {
      stats.executions_per_sec =
          static_cast<double>(last.second - first.second) / seconds;
    }
  }
  stats.sessions_created = session_pool_.created();

  // Live depth / executions per tenant come from the live records; the
  // monotone counters come from the tenant table.
  std::map<std::string, std::pair<size_t, uint64_t>> live_now;  // queued, exec
  for (const auto& [ticket, record] : live_jobs_) {
    auto& entry = live_now[record->tenant];
    if (record->stage == Stage::kAdmitted) {
      ++entry.first;
      ++stats.queued_jobs;
    }
    entry.second += record->progress.executions;
  }
  stats.tenants.reserve(tenants_.size());
  for (const auto& [name, record] : tenants_) {
    TenantStats tenant;
    tenant.tenant = name;
    tenant.submitted = record.submitted;
    tenant.admitted = record.admitted;
    tenant.rejected = record.rejected;
    tenant.completed = record.completed;
    tenant.cancelled = record.cancelled;
    tenant.deadline_hits = record.deadline_hits;
    tenant.stepped_quanta = record.stepped_quanta;
    tenant.live_jobs = record.live;
    auto it = live_now.find(name);
    tenant.queued_jobs = it != live_now.end() ? it->second.first : 0;
    tenant.executions = record.completed_executions +
                        (it != live_now.end() ? it->second.second : 0);
    stats.tenants.push_back(std::move(tenant));
  }
  return stats;
}

uint64_t FuzzService::TotalExecutionsLocked() const {
  uint64_t total = completed_executions_;
  for (const auto& [ticket, record] : live_jobs_) {
    total += record->progress.executions;
  }
  return total;
}

// ---------------------------------------------------------------- Workers --

bool FuzzService::AllDoneLocked() const { return live_jobs_.empty(); }

void FuzzService::WorkerMain() {
  Slice slice;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!PickSliceLocked(&slice)) {
      if (stop_ && AllDoneLocked()) {
        work_cv_.notify_all();  // the other workers exit too
        return;
      }
      ++idle_workers_;
      work_cv_.wait(lock);
      --idle_workers_;
      continue;
    }
    lock.unlock();
    RunSlice(slice);
    lock.lock();
    SettleSliceLocked(slice);
  }
}

bool FuzzService::PickSliceLocked(Slice* slice) {
  if (paused_ && !stop_) return false;
  const auto now = Clock::now();
  const bool steps_open =
      options_.step_slots == 0 || steps_running_ < options_.step_slots;
  JobRecord* best = nullptr;
  Slice::Kind best_kind = Slice::Kind::kSetup;
  size_t runnable = 0;
  // The fair-share order over slices, keyed by the job a slice belongs to:
  // least-charged tenant first, then higher priority, then lower ticket.
  auto runs_before = [](const JobRecord* a, const JobRecord* b) {
    const uint64_t wa = a->tenant_record->stepped_quanta;
    const uint64_t wb = b->tenant_record->stepped_quanta;
    if (wa != wb) return wa < wb;
    if (a->job.priority != b->job.priority) {
      return a->job.priority > b->job.priority;
    }
    return a->ticket < b->ticket;
  };
  auto consider = [&](JobRecord* r, Slice::Kind kind) {
    ++runnable;
    if (best == nullptr || runs_before(r, best)) {
      best = r;
      best_kind = kind;
    }
  };

  // Iterate with an explicit iterator: a cancel-before-start completes the
  // job inline, which erases its live_jobs_ node — advance first.
  for (auto it = live_jobs_.begin(); it != live_jobs_.end();) {
    JobRecord* r = it->second;
    ++it;
    if (r->running) continue;
    CheckDeadlineLocked(r, now);
    if (r->stage == Stage::kAdmitted) {
      if (r->cancel_requested) {
        CancelBeforeStartLocked(r);
      } else {
        consider(r, Slice::Kind::kSetup);
      }
    } else if (r->cancel_requested || r->campaign->Done()) {
      consider(r, Slice::Kind::kFinalize);
    } else if (steps_open) {
      consider(r, Slice::Kind::kStep);
    }
  }
  if (best == nullptr) return false;

  slice->kind = best_kind;
  slice->job = best;
  best->running = true;
  if (best_kind == Slice::Kind::kFinalize) {
    best->finalize_cancelled =
        best->cancel_requested && !best->campaign->Done();
  } else if (best_kind == Slice::Kind::kStep) {
    ++steps_running_;
    best->tenant_record->stepped_quanta +=
        static_cast<uint64_t>(options_.round_quantum);
    if (best->progress.first_step_round < 0) {
      best->progress.first_step_round = static_cast<int64_t>(rounds_done_);
    }
  }
  // Other runnable slices are left: hand one to an idle worker.
  if (runnable > 1 && idle_workers_ > 0) work_cv_.notify_one();
  return true;
}

void FuzzService::RunSlice(const Slice& slice) {
  JobRecord* r = slice.job;
  switch (slice.kind) {
    case Slice::Kind::kSetup:
      SetupJob(r);
      break;
    case Slice::Kind::kStep: {
      auto start = Clock::now();
      r->campaign->StepStream(static_cast<uint64_t>(options_.round_quantum));
      r->active_ms += MsBetween(start, Clock::now());
      break;
    }
    case Slice::Kind::kFinalize:
      FinalizeJob(r);
      break;
  }
}

void FuzzService::SettleSliceLocked(const Slice& slice) {
  JobRecord* r = slice.job;
  r->running = false;
  switch (slice.kind) {
    case Slice::Kind::kSetup:
      if (r->campaign == nullptr) {
        MarkDoneLocked(r);  // compile failed
        break;
      }
      r->stage = Stage::kActive;
      SnapshotProgressLocked(r);
      break;
    case Slice::Kind::kStep:
      --steps_running_;
      ++r->rounds;
      SnapshotProgressLocked(r);
      break;
    case Slice::Kind::kFinalize:
      MarkDoneLocked(r);
      break;
  }
  ++rounds_done_;
  SampleSliceLocked(Clock::now());
}

void FuzzService::CheckDeadlineLocked(JobRecord* r,
                                      std::chrono::steady_clock::time_point
                                          now) {
  if (r->deadline_hit || r->cancel_requested || r->job.deadline_ms == 0 ||
      r->stage == Stage::kDone) {
    return;
  }
  if (now - r->admitted_at <
      std::chrono::milliseconds(r->job.deadline_ms)) {
    return;
  }
  r->deadline_hit = true;
  r->cancel_requested = true;
  r->progress.deadline_expired = true;
  ++deadline_hits_;
  ++r->tenant_record->deadline_hits;
}

void FuzzService::SampleSliceLocked(
    std::chrono::steady_clock::time_point now) {
  rate_samples_.emplace_back(now, TotalExecutionsLocked());
  while (rate_samples_.size() > 64) rate_samples_.pop_front();

  if (options_.metrics_log_interval_ms <= 0) return;
  if (now - last_metrics_log_ <
      std::chrono::milliseconds(options_.metrics_log_interval_ms)) {
    return;
  }
  last_metrics_log_ = now;
  ServiceStats stats = StatsLocked();
  std::string tenants;
  for (const TenantStats& tenant : stats.tenants) {
    if (!tenants.empty()) tenants += ",";
    tenants += tenant.tenant + ":" + std::to_string(tenant.live_jobs);
  }
  std::fprintf(stderr,
               "[mufuzzd] execs=%llu execs/s=%.0f live=%zu queued=%zu "
               "rounds=%llu rejected=%llu/%llu deadline_hits=%llu "
               "tenants=[%s]\n",
               static_cast<unsigned long long>(stats.executions),
               stats.executions_per_sec, stats.live_jobs, stats.queued_jobs,
               static_cast<unsigned long long>(stats.rounds),
               static_cast<unsigned long long>(stats.rejected_tenant),
               static_cast<unsigned long long>(stats.rejected_global),
               static_cast<unsigned long long>(stats.deadline_hits),
               tenants.c_str());
}

// -------------------------------------------------- Slice bodies (no lock) --

void FuzzService::SetupJob(JobRecord* r) {
  auto start = Clock::now();
  if (r->job.artifact != nullptr) {
    r->artifact = r->job.artifact;
  } else {
    auto result = lang::CompileContract(r->job.source);
    if (result.ok()) {
      r->compiled = std::move(result).value();
      r->artifact = &*r->compiled;
    } else {
      r->outcome.error = result.status().ToString();
    }
  }
  if (r->artifact != nullptr) {
    r->session = session_pool_.Acquire();
    r->campaign = std::make_unique<fuzzer::Campaign>(
        r->artifact, r->job.config, r->session.get(), nullptr, -1);
    r->campaign->SeedCorpus();
  }
  r->active_ms += MsBetween(start, Clock::now());
}

void FuzzService::FinalizeJob(JobRecord* r) {
  auto start = Clock::now();
  if (r->finalize_cancelled) {
    r->campaign->MarkCancelled();
    r->campaign->DrainStream();
  }
  r->outcome.result = r->campaign->Finalize();
  // Drop the campaign before the backend it unbinds on destruction goes
  // back to the pool.
  r->campaign.reset();
  if (r->session != nullptr) session_pool_.Release(std::move(r->session));
  // Nothing reads the compile products of a finished job; free them here,
  // outside mu_, so the record keeps only its outcome.
  r->artifact = nullptr;
  r->compiled.reset();
  r->active_ms += MsBetween(start, Clock::now());
}

// ------------------------------------------------------------ Bookkeeping --

void FuzzService::SnapshotProgressLocked(JobRecord* r) {
  fuzzer::Campaign::Progress p = r->campaign->SnapshotProgress();
  r->progress.executions = p.executions;
  r->progress.transactions = p.transactions;
  r->progress.coverage = p.coverage;
  r->progress.bugs_found = p.bugs_found;
  r->progress.parents_in_flight = p.parents_in_flight;
  r->progress.inflight_executions = p.inflight_executions;
  r->progress.code_cache = p.code_cache;
  r->progress.heap_allocs = p.heap_allocs;
  r->progress.round_index = r->rounds;
}

void FuzzService::MarkDoneLocked(JobRecord* r) {
  r->stage = Stage::kDone;
  r->outcome.elapsed_ms = r->active_ms;
  // Every path to kDone passes here; swap so the capacity goes too.
  std::string().swap(r->job.source);
  live_jobs_.erase(r->ticket);

  TenantRecord& tenant = *r->tenant_record;
  --tenant.live;
  ++tenant.completed;
  ++completed_total_;
  const bool via_cancel =
      r->progress.cancelled ||
      (r->outcome.result.has_value() && r->outcome.result->cancelled);
  if (via_cancel) {
    ++tenant.cancelled;
    ++cancelled_total_;
  }
  if (r->outcome.result.has_value()) {
    tenant.completed_executions += r->outcome.result->executions;
    completed_executions_ += r->outcome.result->executions;
  }
  JobProgress& p = r->progress;
  p.state = JobState::kDone;
  // A finished job has nothing speculative left: the finalize path drained
  // the set and applied every executed child.
  p.parents_in_flight = 0;
  p.inflight_executions = 0;
  if (r->outcome.result.has_value()) {
    const fuzzer::CampaignResult& result = *r->outcome.result;
    p.executions = result.executions;
    p.transactions = result.transactions;
    p.coverage = result.branch_coverage;
    p.bugs_found = result.bugs.size();
    p.cancelled = result.cancelled;
    p.code_cache = result.code_cache;
    p.round_index = r->rounds;
  }
  done_cv_.notify_all();
}

void FuzzService::CancelBeforeStartLocked(JobRecord* r) {
  // No campaign ever ran, so — per the JobOutcome contract — the result
  // stays empty (it can never be mistaken for a zero-coverage row) and the
  // error says why; the progress snapshot still reports the cancellation.
  r->finalize_cancelled = true;
  r->outcome.error = r->deadline_hit
                         ? "deadline expired before the campaign started"
                         : "cancelled before the campaign started";
  r->progress.cancelled = true;
  MarkDoneLocked(r);
}

}  // namespace mufuzz::engine
