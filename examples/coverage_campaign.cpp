// Coverage shoot-out: fuzzes a generated corpus with every strategy preset
// (MuFuzz, its three ablations, and the baseline emulations) and prints a
// coverage leaderboard — a minimal version of the Fig. 6 / Fig. 7 pipeline
// for experimenting with your own strategy mixes. The whole strategy x
// contract grid is submitted to one FuzzService up front, so it
// saturates however many cores you give it while producing the same numbers
// as a serial loop.
//
//   ./coverage_campaign [num_contracts] [executions] [seed] [workers]

#include <cstdio>
#include <cstdlib>

#include "corpus/generator.h"
#include "engine/fuzz_service.h"

int main(int argc, char** argv) {
  int n = argc > 1 ? std::atoi(argv[1]) : 10;
  int execs = argc > 2 ? std::atoi(argv[2]) : 400;
  uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
  int workers = argc > 4 ? std::atoi(argv[4]) : 0;
  if (workers <= 0) workers = mufuzz::engine::DefaultWorkerCount();

  std::vector<mufuzz::corpus::CorpusEntry> corpus;
  for (int i = 0; i < n; ++i) {
    corpus.push_back(mufuzz::corpus::GenerateContract(
        mufuzz::corpus::GeneratorParams::Small(), seed + 101 * i));
  }

  const std::vector<mufuzz::fuzzer::StrategyConfig> strategies = {
      mufuzz::fuzzer::StrategyConfig::MuFuzz(),
      mufuzz::fuzzer::StrategyConfig::WithoutSequenceAware(),
      mufuzz::fuzzer::StrategyConfig::WithoutMask(),
      mufuzz::fuzzer::StrategyConfig::WithoutEnergy(),
      mufuzz::fuzzer::StrategyConfig::IRFuzz(),
      mufuzz::fuzzer::StrategyConfig::ConFuzzius(),
      mufuzz::fuzzer::StrategyConfig::Smartian(),
      mufuzz::fuzzer::StrategyConfig::SFuzz(),
      mufuzz::fuzzer::StrategyConfig::BlackBox(),
  };

  // The full strategy x contract grid, submitted up front: outcomes come
  // back in ticket (= submission) order.
  mufuzz::engine::ServiceOptions options;
  options.workers = workers;
  mufuzz::engine::FuzzService service(options);
  for (const auto& strategy : strategies) {
    for (size_t i = 0; i < corpus.size(); ++i) {
      mufuzz::engine::FuzzJob job;
      job.name = strategy.name + "/" + corpus[i].name;
      job.source = corpus[i].source;
      job.config.strategy = strategy;
      job.config.seed = seed + i;
      job.config.max_executions = execs;
      auto ticket = service.Submit(std::move(job));
      if (!ticket.ok()) {
        std::fprintf(stderr, "%s\n", ticket.status().ToString().c_str());
        return 1;
      }
    }
  }
  auto outcomes = service.WaitAll();

  std::printf("coverage over %d generated contracts, %d executions each, "
              "%d workers\n\n", n, execs, workers);
  std::printf("%-22s %10s %12s %14s\n", "strategy", "coverage",
              "src-coverage", "transactions");
  for (int i = 0; i < 62; ++i) std::putchar('-');
  std::putchar('\n');

  for (size_t s = 0; s < strategies.size(); ++s) {
    double cov = 0, user_cov = 0;
    unsigned long long txs = 0;
    int counted = 0;
    for (size_t i = 0; i < corpus.size(); ++i) {
      const auto& outcome = outcomes[s * corpus.size() + i];
      if (!outcome.result.has_value()) continue;
      cov += outcome.result->branch_coverage;
      user_cov += outcome.result->user_branch_coverage;
      txs += outcome.result->transactions;
      ++counted;
    }
    if (counted == 0) continue;
    std::printf("%-22s %9.1f%% %11.1f%% %14llu\n",
                strategies[s].name.c_str(), 100.0 * cov / counted,
                100.0 * user_cov / counted, txs);
  }
  return 0;
}
