// Streaming engine API: run fuzzing as a long-lived service instead of a
// blocking batch — submit jobs whenever they arrive, watch their progress,
// cancel the ones you no longer need, and collect outcomes as they finish.
//
// quickstart.cpp's seed sweep submits everything and then waits; here
// nothing blocks — a scanner can keep feeding contracts into the engine
// while earlier ones are still fuzzing, and the same jobs still produce
// bit-for-bit the same results (the service's determinism contract).
//
//   ./service_streaming [executions] [workers]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "corpus/builtin.h"
#include "engine/fuzz_service.h"

int main(int argc, char** argv) {
  using namespace mufuzz;
  int execs = argc > 1 ? std::atoi(argv[1]) : 2000;
  int workers = argc > 2 ? std::atoi(argv[2]) : 0;

  // 1. A long-lived service: worker threads that each run whichever job
  //    slice is ready next. round_quantum is the progress/cancel
  //    granularity — it never changes results.
  engine::ServiceOptions options;
  options.workers = workers;
  options.round_quantum = 64;
  engine::FuzzService service(options);
  std::printf("service up with %d worker(s)\n", service.workers());

  // 2. Submit a stream of jobs — no batch boundary, tickets come back
  //    immediately. Submit validates knobs instead of silently coercing.
  std::vector<engine::JobTicket> tickets;
  const corpus::CorpusEntry examples[] = {corpus::CrowdsaleExample(),
                                          corpus::GameExample()};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (const corpus::CorpusEntry& entry : examples) {
      engine::FuzzJob job;
      job.name = entry.name + "/seed=" + std::to_string(seed);
      job.source = entry.source;
      job.config.seed = seed;
      job.config.max_executions = execs;
      auto ticket = service.Submit(job);
      if (!ticket.ok()) {
        std::fprintf(stderr, "rejected %s: %s\n", job.name.c_str(),
                     ticket.status().ToString().c_str());
        continue;
      }
      tickets.push_back(ticket.value());
    }
  }

  // 3. Watch progress while the campaigns run; cancel the last job once
  //    the others are half way — its partial result stays valid.
  bool cancelled_one = false;
  for (;;) {
    uint64_t total = 0;
    size_t done = 0;
    for (engine::JobTicket ticket : tickets) {
      engine::JobProgress progress = service.Poll(ticket);
      total += progress.executions;
      if (progress.state == engine::JobState::kDone) ++done;
    }
    std::printf("progress: %llu executions across %zu jobs (%zu done)\n",
                static_cast<unsigned long long>(total), tickets.size(), done);
    if (!cancelled_one &&
        total > tickets.size() * static_cast<uint64_t>(execs) / 2) {
      std::printf("cancelling %s mid-run\n", "the last submission");
      service.Cancel(tickets.back());
      cancelled_one = true;
    }
    if (done == tickets.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // 4. Outcomes are retained — Wait on a finished ticket returns instantly
  //    and idempotently.
  std::printf("\n%-24s %10s %9s %6s %s\n", "job", "execs", "coverage",
              "bugs", "state");
  for (engine::JobTicket ticket : tickets) {
    engine::JobOutcome outcome = service.Wait(ticket);
    if (!outcome.result.has_value()) {
      std::printf("%-24s failed: %s\n", outcome.name.c_str(),
                  outcome.error.c_str());
      continue;
    }
    std::printf("%-24s %10llu %8.1f%% %6zu %s\n", outcome.name.c_str(),
                static_cast<unsigned long long>(outcome.result->executions),
                100.0 * outcome.result->branch_coverage,
                outcome.result->bugs.size(),
                outcome.result->cancelled ? "cancelled (partial)" : "done");
  }
  return 0;
}
