#ifndef MUFUZZ_TESTS_ENGINE_SUBMIT_ALL_H_
#define MUFUZZ_TESTS_ENGINE_SUBMIT_ALL_H_

#include <gtest/gtest.h>

#include <vector>

#include "engine/fuzz_service.h"

namespace mufuzz::engine {

/// Submits every job to a fresh service, then waits for each: outcomes in
/// job order. Every job must be admitted (a rejection fails the test).
inline std::vector<JobOutcome> SubmitAllThenWait(
    const std::vector<FuzzJob>& jobs, const ServiceOptions& options) {
  FuzzService service(options);
  std::vector<JobTicket> tickets;
  for (const FuzzJob& job : jobs) {
    Result<JobTicket> ticket = service.Submit(job);
    EXPECT_TRUE(ticket.ok()) << job.name << ": " << ticket.status().ToString();
    if (ticket.ok()) tickets.push_back(ticket.value());
  }
  std::vector<JobOutcome> outcomes;
  for (JobTicket ticket : tickets) outcomes.push_back(service.Wait(ticket));
  return outcomes;
}

}  // namespace mufuzz::engine

#endif  // MUFUZZ_TESTS_ENGINE_SUBMIT_ALL_H_
