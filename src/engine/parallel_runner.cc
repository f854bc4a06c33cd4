#include "engine/parallel_runner.h"

#include <map>
#include <utility>

namespace mufuzz::engine {

ParallelRunner::ParallelRunner(RunnerOptions options) : options_(options) {}

FuzzService* ParallelRunner::EnsureService() {
  if (service_ == nullptr) {
    ServiceOptions service_options;
    service_options.workers = options_.workers;
    service_options.reuse_sessions = options_.reuse_sessions;
    service_options.wave_size = options_.wave_size;
    service_options.fanout = options_.fanout;
    service_options.exchange_interval = options_.exchange_interval;
    service_options.migration_top_k = options_.migration_top_k;
    service_ = std::make_unique<FuzzService>(service_options);
  }
  return service_.get();
}

std::vector<JobOutcome> ParallelRunner::Run(const std::vector<FuzzJob>& jobs) {
  std::vector<JobOutcome> outcomes(jobs.size());
  if (jobs.empty()) return outcomes;
  FuzzService* service = EnsureService();

  // Partition exactly as the pre-service batch runner did: island-group
  // members take the migration path only when migration is on; everything
  // else (including group tags with migration off) runs standalone.
  const bool migration = options_.exchange_interval > 0;
  std::vector<size_t> standalone;
  std::map<int, std::vector<size_t>> groups;  // ordered → deterministic
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (migration && jobs[i].island_group >= 0) {
      groups[jobs[i].island_group].push_back(i);
    } else {
      standalone.push_back(i);
    }
  }

  // Submit everything, then wait: the service interleaves the standalone
  // stream and the island rounds on its pool. Validation failures become
  // error outcomes in the failed job's slot (all-or-nothing per group).
  std::vector<std::pair<size_t, JobTicket>> waits;
  waits.reserve(jobs.size());
  for (size_t index : standalone) {
    Result<JobTicket> ticket = service->Submit(jobs[index]);
    if (ticket.ok()) {
      waits.emplace_back(index, ticket.value());
    } else {
      outcomes[index].name = jobs[index].name;
      outcomes[index].error = ticket.status().ToString();
    }
  }
  for (const auto& [group_id, indices] : groups) {
    std::vector<FuzzJob> members;
    members.reserve(indices.size());
    for (size_t index : indices) members.push_back(jobs[index]);
    Result<GroupTicket> group = service->SubmitIslandGroup(std::move(members));
    if (group.ok()) {
      for (size_t k = 0; k < indices.size(); ++k) {
        waits.emplace_back(indices[k], group.value().members[k]);
      }
    } else {
      for (size_t index : indices) {
        outcomes[index].name = jobs[index].name;
        outcomes[index].error = group.status().ToString();
      }
    }
  }

  for (const auto& [index, ticket] : waits) {
    outcomes[index] = service->Wait(ticket);
  }
  return outcomes;
}

std::vector<JobOutcome> RunBatch(const std::vector<FuzzJob>& jobs,
                                 RunnerOptions options) {
  return ParallelRunner(options).Run(jobs);
}

}  // namespace mufuzz::engine
