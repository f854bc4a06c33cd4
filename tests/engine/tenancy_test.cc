// Multi-tenant scheduling semantics: admission control (global and
// per-tenant live-job bounds), deterministic
// deficit fair-share ordering, per-job deadlines riding the cancel path,
// and the metrics counters the STATS plane serves. Tenancy is
// scheduling-only — the companion determinism assertions (a gated job
// still reproduces its RunCampaign result) ride along in every test.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "corpus/builtin.h"
#include "engine/fuzz_service.h"
#include "fuzzer/campaign.h"
#include "lang/compiler.h"

namespace mufuzz::engine {
namespace {

using fuzzer::CampaignResult;
using fuzzer::StrategyConfig;

FuzzJob TenantJob(const std::string& tenant, uint64_t seed,
                  int max_executions = 96) {
  FuzzJob job;
  job.name = tenant + "/seed=" + std::to_string(seed);
  job.source = corpus::CrowdsaleExample().source;
  job.tenant = tenant;
  job.config.strategy = StrategyConfig::MuFuzz();
  job.config.seed = seed;
  job.config.max_executions = max_executions;
  return job;
}

CampaignResult Reference(const FuzzJob& job) {
  auto artifact = lang::CompileContract(job.source);
  EXPECT_TRUE(artifact.ok());
  return fuzzer::RunCampaign(*artifact, job.config);
}

const TenantStats* FindTenant(const ServiceStats& stats,
                              const std::string& name) {
  for (const TenantStats& t : stats.tenants) {
    if (t.tenant == name) return &t;
  }
  return nullptr;
}

TEST(TenancyTest, PerTenantAdmissionBound) {
  ServiceOptions options;
  options.workers = 2;
  options.max_live_jobs_per_tenant = 2;
  options.start_paused = true;  // jobs cannot drain: bounds bind exactly
  FuzzService service(options);

  auto t1 = service.Submit(TenantJob("acme", 1));
  auto t2 = service.Submit(TenantJob("acme", 2));
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());

  auto rejected = service.Submit(TenantJob("acme", 3));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.status().message().find("acme"), std::string::npos)
      << rejected.status().ToString();

  // The bound is per tenant: another tenant still gets in.
  auto other = service.Submit(TenantJob("zeta", 4));
  ASSERT_TRUE(other.ok()) << other.status().ToString();

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.rejected_tenant, 1u);
  EXPECT_EQ(stats.rejected_global, 0u);
  const TenantStats* acme = FindTenant(stats, "acme");
  ASSERT_NE(acme, nullptr);
  EXPECT_EQ(acme->submitted, 3u);
  EXPECT_EQ(acme->admitted, 2u);
  EXPECT_EQ(acme->rejected, 1u);
  EXPECT_EQ(acme->live_jobs, 2u);

  service.Resume();
  std::vector<JobOutcome> outcomes = service.WaitAll();
  ASSERT_EQ(outcomes.size(), 3u);
  for (const JobOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.result.has_value()) << outcome.error;
  }
  // Rejection never leaks into results: the admitted jobs reproduce their
  // serial references exactly.
  EXPECT_EQ(Reference(TenantJob("acme", 1)), *service.Wait(*t1).result);

  stats = service.Stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.live_jobs, 0u);
  EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected_global +
                                 stats.rejected_tenant);
}

TEST(TenancyTest, GlobalAdmissionBound) {
  ServiceOptions options;
  options.workers = 2;
  options.max_live_jobs = 2;
  options.start_paused = true;
  FuzzService service(options);

  ASSERT_TRUE(service.Submit(TenantJob("a", 1)).ok());
  ASSERT_TRUE(service.Submit(TenantJob("b", 2)).ok());
  // Global bound rejects regardless of which tenant asks.
  auto rejected = service.Submit(TenantJob("c", 3));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.status().message().find("global"), std::string::npos)
      << rejected.status().ToString();

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected_global, 1u);
  EXPECT_EQ(stats.rejected_tenant, 0u);

  service.Resume();
  service.WaitAll();
  // Once jobs drained, admission opens up again.
  auto readmitted = service.Submit(TenantJob("c", 3));
  EXPECT_TRUE(readmitted.ok()) << readmitted.status().ToString();
  service.WaitAll();
}

/// A paused backlog on one worker: once resumed, the slice order is a pure
/// function of the submissions, so first_step_round (the slice counter at
/// a job's first step) pins the fair-share rule exactly.
ServiceOptions OneWorkerBacklog() {
  ServiceOptions options;
  options.workers = 1;
  options.round_quantum = 24;
  options.start_paused = true;
  return options;
}

TEST(TenancyTest, FairShareOrderingIsDeterministic) {
  // With tenants {a: 2 jobs, b: 1 job} submitted a1, a2, b1, the deficit
  // rule must open with a1 (all-zero tie → lowest ticket), hand the next
  // pick to b1 once a1's first step charged tenant a, and start a2 only
  // later — a1 keeps beating it on the ticket tie-break inside tenant a.
  FuzzService service(OneWorkerBacklog());

  auto a1 = service.Submit(TenantJob("a", 1));
  auto a2 = service.Submit(TenantJob("a", 2));
  auto b1 = service.Submit(TenantJob("b", 3));
  ASSERT_TRUE(a1.ok() && a2.ok() && b1.ok());
  service.Resume();
  service.WaitAll();

  int64_t first_a1 = service.Poll(*a1).first_step_round;
  int64_t first_a2 = service.Poll(*a2).first_step_round;
  int64_t first_b1 = service.Poll(*b1).first_step_round;
  ASSERT_GE(first_a1, 0);
  ASSERT_GE(first_a2, 0);
  ASSERT_GE(first_b1, 0);
  EXPECT_LT(first_a1, first_b1);
  EXPECT_LT(first_b1, first_a2);

  // Gating changed only the schedule: every result still matches the
  // ungated serial reference.
  EXPECT_EQ(Reference(TenantJob("a", 1)), *service.Wait(*a1).result);
  EXPECT_EQ(Reference(TenantJob("a", 2)), *service.Wait(*a2).result);
  EXPECT_EQ(Reference(TenantJob("b", 3)), *service.Wait(*b1).result);

  // Fair-share charging is visible in the metrics plane: both tenants
  // stepped, and tenant a (two jobs) accumulated at least b's share.
  ServiceStats stats = service.Stats();
  const TenantStats* a = FindTenant(stats, "a");
  const TenantStats* b = FindTenant(stats, "b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_GT(a->stepped_quanta, 0u);
  EXPECT_GT(b->stepped_quanta, 0u);
  EXPECT_GE(a->stepped_quanta, b->stepped_quanta);
}

TEST(TenancyTest, PriorityBreaksTiesWithinATenant) {
  // Same tenant, same deficit — the higher-priority job must step first
  // even though it got the later ticket.
  FuzzService service(OneWorkerBacklog());

  FuzzJob low = TenantJob("a", 1);
  FuzzJob high = TenantJob("a", 2);
  high.priority = 5;
  auto low_ticket = service.Submit(low);
  auto high_ticket = service.Submit(high);
  ASSERT_TRUE(low_ticket.ok() && high_ticket.ok());
  service.Resume();
  service.WaitAll();

  EXPECT_LT(service.Poll(*high_ticket).first_step_round,
            service.Poll(*low_ticket).first_step_round);
}

TEST(TenancyTest, LateTenantIsNotStarvedByABacklog) {
  // Tenant b's one job arrives behind eight of tenant a's. Deficit fair
  // share steps it as soon as a's first step charged tenant a, long before
  // a's last job starts; a FIFO-by-ticket scheduler would run all of a
  // first.
  FuzzService service(OneWorkerBacklog());
  std::vector<JobTicket> a;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto ticket = service.Submit(TenantJob("a", seed));
    ASSERT_TRUE(ticket.ok());
    a.push_back(*ticket);
  }
  auto b = service.Submit(TenantJob("b", 9));
  ASSERT_TRUE(b.ok());
  service.Resume();
  service.WaitAll();

  const int64_t first_b = service.Poll(*b).first_step_round;
  ASSERT_GE(first_b, 0);
  EXPECT_LT(first_b, service.Poll(a.back()).first_step_round);
  EXPECT_EQ(Reference(TenantJob("b", 9)), *service.Wait(*b).result);
}

TEST(TenancyTest, StepSlotsCapKeepsResults) {
  // One step slot across two workers still runs every job to its
  // reference result; the cap only serializes the steps.
  ServiceOptions options;
  options.workers = 2;
  options.round_quantum = 24;
  options.step_slots = 1;
  FuzzService service(options);
  auto a1 = service.Submit(TenantJob("a", 1));
  auto b1 = service.Submit(TenantJob("b", 3));
  ASSERT_TRUE(a1.ok() && b1.ok());
  EXPECT_EQ(Reference(TenantJob("a", 1)), *service.Wait(*a1).result);
  EXPECT_EQ(Reference(TenantJob("b", 3)), *service.Wait(*b1).result);
}

TEST(TenancyTest, DeadlineExpiryCancelsMidRun) {
  ServiceOptions options;
  options.workers = 2;
  options.round_quantum = 32;
  FuzzService service(options);

  // A budget far beyond what 250ms can execute, so the deadline always
  // fires mid-run (or — on a badly stalled machine — before the start;
  // both are legal deadline outcomes and both must be counted).
  FuzzJob job = TenantJob("slow", 1, /*max_executions=*/50'000'000);
  job.deadline_ms = 250;
  auto ticket = service.Submit(job);
  ASSERT_TRUE(ticket.ok());

  JobOutcome outcome = service.Wait(*ticket);
  JobProgress progress = service.Poll(*ticket);
  EXPECT_EQ(progress.state, JobState::kDone);
  EXPECT_TRUE(progress.deadline_expired);
  if (outcome.result.has_value()) {
    // The normal path: a partial-but-valid result flagged cancelled.
    EXPECT_TRUE(outcome.result->cancelled);
    EXPECT_GT(outcome.result->executions, 0u);
    EXPECT_LT(outcome.result->executions, 50'000'000u);
  } else {
    EXPECT_NE(outcome.error.find("deadline"), std::string::npos)
        << outcome.error;
  }

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.deadline_hits, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  const TenantStats* slow = FindTenant(stats, "slow");
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slow->deadline_hits, 1u);
}

TEST(TenancyTest, DeadlineBeforeStartLeavesResultEmpty) {
  // The service is paused while the 1ms deadline lapses, so the very
  // first pick finds the job expired before any campaign ran — per the
  // JobOutcome contract that must yield an *empty* result with an
  // explanatory error, never a zero-coverage row.
  ServiceOptions options;
  options.workers = 1;
  options.start_paused = true;
  FuzzService service(options);

  FuzzJob job = TenantJob("late", 1);
  job.deadline_ms = 1;
  auto ticket = service.Submit(job);
  ASSERT_TRUE(ticket.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.Resume();

  JobOutcome outcome = service.Wait(*ticket);
  EXPECT_FALSE(outcome.result.has_value());
  EXPECT_NE(outcome.error.find("deadline expired before the campaign"),
            std::string::npos)
      << outcome.error;
  EXPECT_TRUE(service.Poll(*ticket).deadline_expired);
  EXPECT_EQ(service.Stats().deadline_hits, 1u);
}

TEST(TenancyTest, MetricsPlaneAggregates) {
  ServiceOptions options;
  options.workers = 2;
  FuzzService service(options);

  std::vector<JobTicket> tickets;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    auto ticket = service.Submit(TenantJob(seed % 2 == 0 ? "even" : "odd",
                                           seed));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  std::vector<JobOutcome> outcomes = service.WaitAll();

  uint64_t total_executions = 0;
  for (const JobOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.result.has_value()) << outcome.error;
    total_executions += outcome.result->executions;
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.executions, total_executions);
  EXPECT_GT(stats.rounds, 0u);
  ASSERT_EQ(stats.tenants.size(), 2u);
  // Sorted by name, and per-tenant executions partition the total.
  EXPECT_EQ(stats.tenants[0].tenant, "even");
  EXPECT_EQ(stats.tenants[1].tenant, "odd");
  EXPECT_EQ(stats.tenants[0].executions + stats.tenants[1].executions,
            total_executions);
}

}  // namespace
}  // namespace mufuzz::engine
