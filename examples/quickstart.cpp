// Quickstart: compile a contract, fuzz it with MuFuzz, print what was found.
//
// This walks the paper's motivating example (Fig. 1): a Crowdsale whose bug
// hides behind `phase == 1` — reachable only by the transaction sequence
// [invest(>=goal), invest(*), withdraw()], which the sequence-aware mutation
// discovers via the read-after-write rule.
//
//   ./quickstart [seed] [executions]

#include <cstdio>
#include <cstdlib>

#include "corpus/builtin.h"
#include "engine/fuzz_service.h"
#include "fuzzer/campaign.h"
#include "lang/compiler.h"

int main(int argc, char** argv) {
  uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  int execs = argc > 2 ? std::atoi(argv[2]) : 600;

  const mufuzz::corpus::CorpusEntry& entry =
      mufuzz::corpus::CrowdsaleExample();
  std::printf("contract under test: %s (the paper's Fig. 1)\n",
              entry.name.c_str());

  // 1. Compile: source -> bytecode + ABI + AST (the three artifacts the
  //    fuzzer's preprocessing consumes).
  auto artifact = mufuzz::lang::CompileContract(entry.source);
  if (!artifact.ok()) {
    std::fprintf(stderr, "compile error: %s\n",
                 artifact.status().ToString().c_str());
    return 1;
  }
  std::printf("compiled: %zu bytes runtime, %zu functions, %d branches\n",
              artifact->runtime_code.size(), artifact->abi.functions.size(),
              artifact->total_jumpis);

  // 2. Fuzz with the full MuFuzz strategy.
  mufuzz::fuzzer::CampaignConfig config;
  config.strategy = mufuzz::fuzzer::StrategyConfig::MuFuzz();
  config.seed = seed;
  config.max_executions = execs;
  auto result = mufuzz::fuzzer::RunCampaign(*artifact, config);

  // 3. Report.
  std::printf("\nafter %llu sequence executions (%llu transactions):\n",
              static_cast<unsigned long long>(result.executions),
              static_cast<unsigned long long>(result.transactions));
  std::printf("  branch coverage:        %.1f%%\n",
              100.0 * result.branch_coverage);
  std::printf("  source-branch coverage: %.1f%%\n",
              100.0 * result.user_branch_coverage);
  if (result.bugs.empty()) {
    std::printf("  no bugs found\n");
  } else {
    std::printf("  bugs found:\n");
    for (const auto& bug : result.bugs) {
      std::printf("   - [%s] %s (pc 0x%04x)\n",
                  mufuzz::analysis::BugClassCode(bug.bug),
                  bug.detail.c_str(), bug.pc);
    }
  }

  bool found_deep_bug = result.Found(
      mufuzz::analysis::BugClass::kUnprotectedSelfdestruct);
  std::printf("\nthe deep bug behind phase==1 was %s\n",
              found_deep_bug ? "FOUND — sequence-aware mutation works"
                             : "not found (try more executions)");

  // 4. Scale out: the same campaign across four seeds, fanned over the
  //    engine layer's service workers — how the bench suite runs whole
  //    datasets.
  mufuzz::engine::FuzzService service;
  for (uint64_t s = 1; s <= 4; ++s) {
    mufuzz::engine::FuzzJob job;
    job.name = "crowdsale/seed=" + std::to_string(s);
    job.artifact = &*artifact;
    job.config.seed = s;
    job.config.max_executions = execs;
    if (!service.Submit(std::move(job)).ok()) return 1;
  }
  auto outcomes = service.WaitAll();
  std::printf("\nparallel sweep over 4 seeds (%d workers available):\n",
              mufuzz::engine::DefaultWorkerCount());
  for (const auto& outcome : outcomes) {
    if (!outcome.result.has_value()) continue;  // compile failures are skips
    std::printf("  %-20s coverage %5.1f%%  bugs %zu\n",
                outcome.name.c_str(),
                100.0 * outcome.result->branch_coverage,
                outcome.result->bugs.size());
  }
  return found_deep_bug ? 0 : 1;
}
