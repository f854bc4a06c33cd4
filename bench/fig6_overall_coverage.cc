// Reproduces Fig. 6 of the MuFuzz paper: overall branch coverage bars for
// MuFuzz / IR-Fuzz / ConFuzzius / sFuzz on small and large contracts.
// Paper values — small: 90 / 86 / 82 / 65, large: 82 / 76 / 70 / 56 (%).
// The shape to reproduce: the strict ordering, and a visibly smaller
// small→large slippage for MuFuzz than for the baselines.

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"

int main(int argc, char** argv) {
  using mufuzz::bench::AggregateOverDataset;
  using mufuzz::bench::PrintRule;
  using mufuzz::fuzzer::StrategyConfig;

  int small_n = argc > 1 ? std::atoi(argv[1]) : 16;
  int large_n = argc > 2 ? std::atoi(argv[2]) : 8;
  uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
  int workers = argc > 4 ? std::atoi(argv[4]) : 0;
  if (workers <= 0) workers = mufuzz::engine::DefaultWorkerCount();
  // Optional island-model configuration: a positive exchange interval runs
  // every contract as a 2-island group with cross-island seed migration.
  int exchange_interval = argc > 5 ? std::atoi(argv[5]) : 0;
  int islands = exchange_interval > 0 ? 2 : 1;
  // Optional speculative fan-out: K parents expanded per campaign round.
  // K changes results (it is part of the reproducibility key), so the
  // reproduce harness diffs a fixed K across worker counts rather than
  // against the serial golden.
  int fanout = argc > 6 ? std::atoi(argv[6]) : 1;
  auto wall_start = std::chrono::steady_clock::now();

  auto small = mufuzz::corpus::BuildD1Small(small_n, seed);
  auto large = mufuzz::corpus::BuildD1Large(large_n, seed);

  const std::vector<StrategyConfig> tools = {
      StrategyConfig::MuFuzz(), StrategyConfig::IRFuzz(),
      StrategyConfig::ConFuzzius(), StrategyConfig::SFuzz()};

  std::printf("== Fig. 6: overall branch coverage ==\n");
  std::printf("paper: small 90/86/82/65%%, large 82/76/70/56%% "
              "(MuFuzz/IR-Fuzz/ConFuzzius/sFuzz)\n");
  std::printf("running with %d worker(s)\n", workers);
  if (exchange_interval > 0) {
    std::printf("island migration: %d islands/contract, exchange every %d "
                "executions\n",
                islands, exchange_interval);
  }
  if (fanout > 1) {
    // "worker" keeps this line inside the CI diff's volatile-line filter.
    std::printf("speculative fan-out: K=%d parents per round "
                "(worker-count independent)\n",
                fanout);
  }
  std::printf("\n");
  PrintRule();
  std::printf("%-12s %16s %16s %10s\n", "tool", "small contracts",
              "large contracts", "slippage");
  PrintRule();
  for (const auto& tool : tools) {
    double s = AggregateOverDataset(small, tool, 400, seed, /*points=*/20,
                                    workers, islands, exchange_interval,
                                    fanout)
                   .mean_final *
               100.0;
    double l = AggregateOverDataset(large, tool, 500, seed + 777,
                                    /*points=*/20, workers, islands,
                                    exchange_interval, fanout)
                   .mean_final *
               100.0;
    std::printf("%-12s %15.1f%% %15.1f%% %9.1f%%\n", tool.name.c_str(), s, l,
                s - l);
  }
  PrintRule();
  std::printf("wall clock: %.0f ms with %d worker(s)\n",
              mufuzz::bench::MsSince(wall_start), workers);
  return 0;
}
