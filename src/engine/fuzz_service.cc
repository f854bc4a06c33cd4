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
  pool_ = std::make_unique<WorkerPool>(workers_);
  coordinator_ = std::thread([this] { CoordinatorMain(); });
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
  if (coordinator_.joinable()) coordinator_.join();
}

// ------------------------------------------------------------- Validation --

Status FuzzService::ValidateSubmission(const FuzzJob& job) const {
  if (options_.wave_size < 0) {
    return Status::InvalidArgument(
        "ServiceOptions::wave_size must be >= 0 (0 = no override)");
  }
  if (options_.migration_top_k < 0) {
    return Status::InvalidArgument(
        "ServiceOptions::migration_top_k must be >= 0 (0 = migrate "
        "nothing)");
  }
  if (options_.fanout < 0) {
    return Status::InvalidArgument(
        "ServiceOptions::fanout must be >= 0 (0 = no override)");
  }
  if (options_.step_slots < 0) {
    return Status::InvalidArgument(
        "ServiceOptions::step_slots must be >= 0 (0 = no fair-share gate)");
  }
  if (options_.metrics_log_interval_ms < 0) {
    return Status::InvalidArgument(
        "ServiceOptions::metrics_log_interval_ms must be >= 0 (0 = no "
        "periodic log line)");
  }
  if (job.config.wave_size < 0) {
    return Status::InvalidArgument("job \"" + job.name +
                                   "\": CampaignConfig::wave_size must be "
                                   ">= 0 (0/1 = the serial loop)");
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

fuzzer::CampaignConfig FuzzService::EffectiveConfig(const FuzzJob& job) const {
  fuzzer::CampaignConfig config = job.config;
  if (options_.wave_size > 0) config.wave_size = options_.wave_size;
  if (options_.fanout > 0) config.fanout = options_.fanout;
  return config;
}

// -------------------------------------------------------------- Admission --

namespace {

/// Canonical tenant key: the empty tenant is the "default" tenant.
std::string ResolveTenant(const std::string& tenant) {
  return tenant.empty() ? "default" : tenant;
}

}  // namespace

Status FuzzService::AdmitLocked(const std::string& tenant, size_t incoming) {
  TenantRecord& record = tenants_[tenant];
  submitted_total_ += incoming;
  record.submitted += incoming;
  if (options_.max_live_jobs > 0 &&
      live_jobs_.size() + incoming > options_.max_live_jobs) {
    rejected_global_ += incoming;
    record.rejected += incoming;
    return Status::ResourceExhausted(
        "global admission queue full (" + std::to_string(live_jobs_.size()) +
        " live jobs, bound " + std::to_string(options_.max_live_jobs) +
        "); retry after jobs drain");
  }
  if (options_.max_live_jobs_per_tenant > 0 &&
      record.live + incoming > options_.max_live_jobs_per_tenant) {
    rejected_tenant_ += incoming;
    record.rejected += incoming;
    return Status::ResourceExhausted(
        "tenant \"" + tenant + "\" admission queue full (" +
        std::to_string(record.live) + " live jobs, bound " +
        std::to_string(options_.max_live_jobs_per_tenant) +
        "); retry after this tenant's jobs drain");
  }
  admitted_total_ += incoming;
  record.admitted += incoming;
  record.live += incoming;
  return Status::OK();
}

Result<JobTicket> FuzzService::Submit(FuzzJob job) {
  Status status = ValidateSubmission(job);
  if (!status.ok()) return status;
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) return Status::Internal("FuzzService is shutting down");
  std::string tenant = ResolveTenant(job.tenant);
  Status admitted = AdmitLocked(tenant, 1);
  if (!admitted.ok()) return admitted;
  JobTicket ticket = next_ticket_++;
  auto record = std::make_unique<JobRecord>();
  record->ticket = ticket;
  record->job = std::move(job);
  record->config = EffectiveConfig(record->job);
  record->outcome.name = record->job.name;
  record->progress.state = JobState::kQueued;
  record->progress.fanout = std::max(1, record->config.fanout);
  record->tenant = std::move(tenant);
  record->admitted_at = Clock::now();
  live_jobs_.emplace(ticket, record.get());
  jobs_.emplace(ticket, std::move(record));
  work_cv_.notify_all();
  return ticket;
}

Result<GroupTicket> FuzzService::SubmitIslandGroup(std::vector<FuzzJob> jobs) {
  if (jobs.empty()) {
    return Status::InvalidArgument(
        "island group must have at least one member");
  }
  if (options_.exchange_interval <= 0) {
    return Status::InvalidArgument(
        "island groups require ServiceOptions::exchange_interval > 0 "
        "(submit the jobs individually to run them standalone)");
  }
  for (const FuzzJob& job : jobs) {
    Status status = ValidateSubmission(job);
    if (!status.ok()) return status;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) return Status::Internal("FuzzService is shutting down");

  // All-or-nothing admission: every member counts as one attempt, and a
  // bound violation rejects (and counts) the whole group.
  std::map<std::string, size_t> per_tenant;
  for (const FuzzJob& job : jobs) ++per_tenant[ResolveTenant(job.tenant)];
  const size_t total = jobs.size();
  submitted_total_ += total;
  for (const auto& [tenant, count] : per_tenant) {
    tenants_[tenant].submitted += count;
  }
  auto reject_all = [&](bool global) {
    (global ? rejected_global_ : rejected_tenant_) += total;
    for (const auto& [tenant, count] : per_tenant) {
      tenants_[tenant].rejected += count;
    }
  };
  if (options_.max_live_jobs > 0 &&
      live_jobs_.size() + total > options_.max_live_jobs) {
    reject_all(/*global=*/true);
    return Status::ResourceExhausted(
        "global admission queue cannot take an island group of " +
        std::to_string(total) + " (" + std::to_string(live_jobs_.size()) +
        " live jobs, bound " + std::to_string(options_.max_live_jobs) + ")");
  }
  if (options_.max_live_jobs_per_tenant > 0) {
    for (const auto& [tenant, count] : per_tenant) {
      if (tenants_[tenant].live + count > options_.max_live_jobs_per_tenant) {
        reject_all(/*global=*/false);
        return Status::ResourceExhausted(
            "tenant \"" + tenant + "\" admission queue cannot take " +
            std::to_string(count) + " island members (" +
            std::to_string(tenants_[tenant].live) + " live jobs, bound " +
            std::to_string(options_.max_live_jobs_per_tenant) + ")");
      }
    }
  }
  admitted_total_ += total;
  for (const auto& [tenant, count] : per_tenant) {
    tenants_[tenant].admitted += count;
    tenants_[tenant].live += count;
  }

  auto group = std::make_unique<GroupRecord>();
  GroupTicket group_ticket;
  for (FuzzJob& job : jobs) {
    JobTicket ticket = next_ticket_++;
    auto record = std::make_unique<JobRecord>();
    record->ticket = ticket;
    record->job = std::move(job);
    record->config = EffectiveConfig(record->job);
    record->outcome.name = record->job.name;
    record->progress.state = JobState::kQueued;
    record->progress.fanout = std::max(1, record->config.fanout);
    record->tenant = ResolveTenant(record->job.tenant);
    record->admitted_at = Clock::now();
    record->group = group.get();
    group->members.push_back(record.get());
    group_ticket.members.push_back(ticket);
    live_jobs_.emplace(ticket, record.get());
    jobs_.emplace(ticket, std::move(record));
  }
  group->open_members = static_cast<int>(group->members.size());
  live_groups_.push_back(group.get());
  groups_.push_back(std::move(group));
  work_cv_.notify_all();
  return group_ticket;
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
  } else if (record->stage == Stage::kActive ||
             record->stage == Stage::kFinalizing) {
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
  work_cv_.notify_all();
}

void FuzzService::CancelGroup(const GroupTicket& group) {
  for (JobTicket ticket : group.members) Cancel(ticket);
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
    if (record->stage == Stage::kAdmitted || record->stage == Stage::kCompiled ||
        record->stage == Stage::kConstruct) {
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

// ------------------------------------------------------------ Coordinator --

bool FuzzService::AllDoneLocked() const { return live_jobs_.empty(); }

void FuzzService::CoordinatorMain() {
  for (;;) {
    RoundPlan plan;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return stop_ || (!paused_ && !AllDoneLocked());
      });
      if (stop_ && AllDoneLocked()) return;
      PlanRoundLocked(&plan);
    }
    if (!plan.tasks.empty()) {
      pool_->ParallelEach(plan.tasks.size(),
                          [&](size_t i) { plan.tasks[i](); });
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      SettleRoundLocked(plan);
    }
  }
}

void FuzzService::PlanRoundLocked(RoundPlan* plan) {
  const uint64_t quantum = static_cast<uint64_t>(options_.round_quantum);
  const uint64_t interval =
      static_cast<uint64_t>(std::max(1, options_.exchange_interval));
  const auto now = Clock::now();
  // Standalone jobs ready to step this round; the fair-share gate below
  // decides which of them actually get a slot.
  std::vector<JobRecord*> step_candidates;

  // Iterate with an explicit iterator: a cancel-before-start completes the
  // job inline, which erases its live_jobs_ node — advance first.
  for (auto it = live_jobs_.begin(); it != live_jobs_.end();) {
    JobRecord* r = it->second;
    ++it;
    CheckDeadlineLocked(r, now);
    switch (r->stage) {
      case Stage::kAdmitted:
        if (r->cancel_requested) {
          CancelBeforeStartLocked(r);
          break;
        }
        if (r->group == nullptr) {
          plan->setups.push_back(r);
          plan->tasks.push_back([this, r] { SetupStandalone(r); });
        } else {
          plan->compiles.push_back(r);
          plan->tasks.push_back([this, r] { CompileIslandMember(r); });
        }
        break;
      case Stage::kCompiled:
        // Waiting for every group member to compile; the settle phase
        // builds the sharder and promotes the whole group together. A
        // cancel here lands before any campaign ran: the member drops out
        // of the group exactly like a compile failure.
        if (r->cancel_requested) CancelBeforeStartLocked(r);
        break;
      case Stage::kConstruct:
        if (r->cancel_requested) {
          // Island id and queue are already assigned, but no campaign ever
          // ran — the member's (empty) queue simply stays in the
          // archipelago, exporting nothing.
          CancelBeforeStartLocked(r);
          break;
        }
        plan->setups.push_back(r);
        plan->tasks.push_back([this, r] { ConstructIslandMember(r); });
        break;
      case Stage::kActive:
        if (r->group == nullptr) {
          if (r->cancel_requested || r->campaign->StreamDone()) {
            r->finalize_cancelled =
                r->cancel_requested && !r->campaign->StreamDone();
            r->stage = Stage::kFinalizing;
            plan->finals.push_back(r);
            plan->tasks.push_back([this, r] { FinalizeJob(r); });
          } else {
            step_candidates.push_back(r);
          }
        } else {
          if (r->cancel_requested && !r->campaign->Done()) {
            r->finalize_cancelled = true;
            r->stage = Stage::kFinalizing;
            plan->finals.push_back(r);
            plan->tasks.push_back([this, r] { FinalizeJob(r); });
          } else if (!r->campaign->Done()) {
            // Island rounds are barrier-coupled across the archipelago, so
            // they are never gated — but their work still charges the
            // tenant's fair-share deficit.
            r->group->stepped_this_round = true;
            tenants_[r->tenant].stepped_quanta += interval;
            if (r->progress.first_step_round < 0) {
              r->progress.first_step_round =
                  static_cast<int64_t>(rounds_done_);
            }
            plan->steps.push_back(r);
            plan->tasks.push_back([r, interval] {
              auto start = Clock::now();
              r->campaign->StepRound(interval);
              r->active_ms += MsBetween(start, Clock::now());
            });
          }
          // A member that exhausted its budget keeps exporting/importing in
          // migration rounds and finalizes when the whole group is done.
        }
        break;
      case Stage::kFinalizing:
        // Set by group completion last settle; schedule the finalize now.
        plan->finals.push_back(r);
        plan->tasks.push_back([this, r] { FinalizeJob(r); });
        break;
      case Stage::kDone:
        break;
    }
  }

  // Deficit fair-share over the standalone candidates: repeatedly pick the
  // job whose tenant has the least stepped work so far (ties: higher job
  // priority, then lower ticket), charging the tenant one quantum per pick
  // so the next pick sees the updated deficit. With no step_slots gate
  // every candidate is picked — in the same deterministic order — and the
  // charge keeps the tenants' deficit counters honest either way.
  const size_t slots =
      options_.step_slots > 0 ? static_cast<size_t>(options_.step_slots)
                              : step_candidates.size();
  size_t picked = 0;
  while (picked < slots && !step_candidates.empty()) {
    size_t best = 0;
    for (size_t i = 1; i < step_candidates.size(); ++i) {
      const JobRecord* a = step_candidates[i];
      const JobRecord* b = step_candidates[best];
      const uint64_t wa = tenants_[a->tenant].stepped_quanta;
      const uint64_t wb = tenants_[b->tenant].stepped_quanta;
      if (wa != wb ? wa < wb
                   : (a->job.priority != b->job.priority
                          ? a->job.priority > b->job.priority
                          : a->ticket < b->ticket)) {
        best = i;
      }
    }
    JobRecord* r = step_candidates[best];
    step_candidates.erase(step_candidates.begin() +
                          static_cast<long>(best));
    tenants_[r->tenant].stepped_quanta += quantum;
    if (r->progress.first_step_round < 0) {
      r->progress.first_step_round = static_cast<int64_t>(rounds_done_);
    }
    plan->steps.push_back(r);
    plan->tasks.push_back([r, quantum] {
      auto start = Clock::now();
      r->campaign->StepStream(quantum);
      r->active_ms += MsBetween(start, Clock::now());
    });
    ++picked;
  }
}

void FuzzService::SettleRoundLocked(const RoundPlan& plan) {
  // Island compiles: survivors wait for their group, failures finish here.
  for (JobRecord* r : plan.compiles) {
    if (r->artifact != nullptr) {
      r->stage = Stage::kCompiled;
    } else {
      MarkDoneLocked(r);
    }
  }

  // Standalone setups and island constructs.
  for (JobRecord* r : plan.setups) {
    if (r->campaign == nullptr) {
      MarkDoneLocked(r);  // compile failed (standalone path)
      continue;
    }
    r->stage = Stage::kActive;
    SnapshotProgressLocked(r);
  }

  // Step slices: count rounds and refresh the between-rounds snapshots.
  for (JobRecord* r : plan.steps) {
    if (r->group == nullptr) ++r->rounds;
    SnapshotProgressLocked(r);
  }

  // Finalized jobs — processed before the group sweep so a group whose
  // last member finalized this round retires (and frees its queues) now.
  for (JobRecord* r : plan.finals) MarkDoneLocked(r);

  // Groups: build sharders once every member compiled, run one serial
  // migration per group that stepped, detect completion, retire drained
  // groups (freeing their seed queues) from the live list.
  for (size_t g = 0; g < live_groups_.size();) {
    GroupRecord* group = live_groups_[g];
    if (group->finished) {
      if (group->open_members == 0) {
        for (JobRecord* m : group->members) m->queue = nullptr;
        group->sharder.reset();
        live_groups_.erase(live_groups_.begin() + static_cast<long>(g));
        continue;
      }
      ++g;
      continue;
    }
    ++g;
    if (!group->built) {
      bool ready = true;
      for (JobRecord* m : group->members) {
        if (m->stage != Stage::kCompiled && m->stage != Stage::kDone) {
          ready = false;
          break;
        }
      }
      if (ready) BuildSharderLocked(group);
      continue;
    }
    if (group->stepped_this_round) {
      group->sharder->RunMigrationRound(options_.migration_top_k);
      ++group->migration_rounds;
      group->stepped_this_round = false;
      for (JobRecord* m : group->members) {
        if (m->stage == Stage::kActive) {
          m->progress.round_index = group->migration_rounds;
        }
      }
    }
    bool all_done = true;
    for (JobRecord* m : group->members) {
      if (m->stage == Stage::kDone) continue;
      if (m->stage == Stage::kActive && m->campaign->Done()) continue;
      all_done = false;
      break;
    }
    if (all_done) {
      group->finished = true;
      for (JobRecord* m : group->members) {
        if (m->stage == Stage::kActive) m->stage = Stage::kFinalizing;
      }
    }
  }

  ++rounds_done_;
  SampleRoundLocked(Clock::now());
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
  ++tenants_[r->tenant].deadline_hits;
}

void FuzzService::SampleRoundLocked(
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

void FuzzService::BuildSharderLocked(GroupRecord* group) {
  std::vector<std::unique_ptr<fuzzer::SeedScheduler>> queues;
  std::vector<JobRecord*> survivors;
  for (JobRecord* m : group->members) {
    if (m->stage != Stage::kCompiled) continue;  // compile failed / cancelled
    m->island_id = static_cast<int>(survivors.size());
    queues.push_back(std::make_unique<fuzzer::SeedScheduler>(
        m->config.strategy.distance_feedback));
    m->queue = queues.back().get();
    survivors.push_back(m);
  }
  group->sharder =
      std::make_unique<fuzzer::ShardedSeedScheduler>(std::move(queues));
  group->built = true;
  for (JobRecord* m : survivors) m->stage = Stage::kConstruct;
}

// --------------------------------------------------- Task bodies (no lock) --

void FuzzService::ResolveArtifact(JobRecord* r) {
  if (r->job.artifact != nullptr) {
    r->artifact = r->job.artifact;
    return;
  }
  auto result = lang::CompileContract(r->job.source);
  if (result.ok()) {
    r->compiled = std::move(result).value();
    r->artifact = &*r->compiled;
  } else {
    r->outcome.error = result.status().ToString();
  }
}

void FuzzService::SetupStandalone(JobRecord* r) {
  auto start = Clock::now();
  ResolveArtifact(r);
  if (r->artifact != nullptr) {
    if (options_.reuse_sessions) r->session = session_pool_.Acquire();
    r->campaign = std::make_unique<fuzzer::Campaign>(
        r->artifact, r->config, r->session.get(), nullptr, -1);
    r->campaign->SeedCorpus();
  }
  r->active_ms += MsBetween(start, Clock::now());
}

void FuzzService::CompileIslandMember(JobRecord* r) {
  auto start = Clock::now();
  ResolveArtifact(r);
  r->active_ms += MsBetween(start, Clock::now());
}

void FuzzService::ConstructIslandMember(JobRecord* r) {
  auto start = Clock::now();
  // The campaign owns its SessionBackend: an island campaign's session must
  // survive across rounds, so pooled leasing would pin it anyway.
  r->campaign = std::make_unique<fuzzer::Campaign>(
      r->artifact, r->config, nullptr, r->queue, r->island_id);
  r->campaign->SeedCorpus();
  r->active_ms += MsBetween(start, Clock::now());
}

void FuzzService::FinalizeJob(JobRecord* r) {
  auto start = Clock::now();
  if (r->finalize_cancelled) {
    r->campaign->MarkCancelled();
    r->campaign->DrainStream();  // no-op on the stepped (island) path
  }
  r->outcome.result = r->campaign->Finalize();
  // Drop the campaign before its externally owned island queue (and before
  // the backend it unbinds on destruction) goes away.
  r->campaign.reset();
  if (r->session != nullptr) session_pool_.Release(std::move(r->session));
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
  r->progress.wave_allocs = p.wave_allocs;
  r->progress.wave_executions = p.wave_executions;
  r->progress.round_index =
      r->group != nullptr ? r->group->migration_rounds : r->rounds;
}

void FuzzService::MarkDoneLocked(JobRecord* r) {
  r->stage = Stage::kDone;
  r->outcome.elapsed_ms = r->active_ms;
  live_jobs_.erase(r->ticket);
  if (r->group != nullptr) --r->group->open_members;

  TenantRecord& tenant = tenants_[r->tenant];
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
    p.round_index =
        r->group != nullptr ? r->group->migration_rounds : r->rounds;
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
