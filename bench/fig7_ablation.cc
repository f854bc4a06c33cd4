// Reproduces Fig. 7 of the MuFuzz paper: the component ablation. Each of
// the three components (sequence-aware mutation, mask-guided seed mutation,
// dynamic energy adjustment) is disabled in turn; bars show achieved
// coverage / detected bugs relative to full MuFuzz. Paper deltas — coverage:
// -18/-9/-10 % (small), -26/-19/-25 % (large); bugs: -14/-6/-11 % (small),
// -27/-22/-24 % (large). The shape to reproduce: every ablation loses, and
// disabling the sequence-aware mutation loses the most.

#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "corpus/generator.h"

namespace {

using mufuzz::bench::PrintRule;
using mufuzz::corpus::CorpusEntry;
using mufuzz::corpus::GeneratorParams;
using mufuzz::fuzzer::StrategyConfig;

struct PanelResult {
  double coverage = 0;
  int bugs_found = 0;
};

PanelResult RunConfig(const std::vector<CorpusEntry>& dataset,
                      const StrategyConfig& strategy, int execs,
                      uint64_t seed) {
  PanelResult out;
  int counted = 0;
  auto outcomes = mufuzz::bench::RunJobs(
      mufuzz::bench::MakeDatasetJobs(dataset, strategy, execs, seed));
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].result.has_value()) {
      std::fprintf(stderr, "[bench] skipping %s: %s\n",
                   outcomes[i].name.c_str(), outcomes[i].error.c_str());
      continue;
    }
    const mufuzz::fuzzer::CampaignResult& result = *outcomes[i].result;
    out.coverage += result.branch_coverage;
    // Count ground-truth bugs actually found (TP accounting).
    for (auto bug : dataset[i].ground_truth) {
      if (result.Found(bug)) ++out.bugs_found;
    }
    ++counted;
  }
  if (counted > 0) out.coverage /= counted;
  return out;
}

void RunPanel(const char* title, const std::vector<CorpusEntry>& dataset,
              int execs, uint64_t seed) {
  const StrategyConfig configs[] = {
      StrategyConfig::MuFuzz(), StrategyConfig::WithoutSequenceAware(),
      StrategyConfig::WithoutMask(), StrategyConfig::WithoutEnergy()};

  PanelResult results[4];
  for (int i = 0; i < 4; ++i) {
    results[i] = RunConfig(dataset, configs[i], execs, seed);
  }
  const PanelResult& full = results[0];

  std::printf("\n%s (n=%zu, budget=%d executions)\n", title, dataset.size(),
              execs);
  PrintRule();
  std::printf("%-22s %10s %10s %10s %10s\n", "config", "coverage",
              "rel.cov", "bugs", "rel.bugs");
  PrintRule();
  for (int i = 0; i < 4; ++i) {
    double rel_cov =
        full.coverage > 0 ? 100.0 * results[i].coverage / full.coverage
                          : 0.0;
    double rel_bugs = full.bugs_found > 0
                          ? 100.0 * results[i].bugs_found / full.bugs_found
                          : 100.0;
    std::printf("%-22s %9.1f%% %9.1f%% %10d %9.1f%%\n",
                configs[i].name.c_str(), 100.0 * results[i].coverage,
                rel_cov, results[i].bugs_found, rel_bugs);
  }
  PrintRule();
}

}  // namespace

int main(int argc, char** argv) {
  int n = argc > 1 ? std::atoi(argv[1]) : 12;
  uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;

  std::printf("== Fig. 7: component ablation ==\n");
  std::printf("paper: all three components lose coverage and bugs when "
              "disabled;\nthe sequence-aware mutation is the largest "
              "single loss.\n");

  // The ablation corpus injects bugs so both panels (coverage and detected
  // vulnerabilities) are measurable — mirrors the paper's random sample of
  // 100 contracts per bucket.
  std::vector<CorpusEntry> small_set, large_set;
  for (int i = 0; i < n; ++i) {
    GeneratorParams small_params = GeneratorParams::Small();
    small_params.bug_probability = 0.6;
    small_set.push_back(
        mufuzz::corpus::GenerateContract(small_params, seed + 7001 * i));
    GeneratorParams large_params = GeneratorParams::Large();
    large_params.bug_probability = 0.8;
    large_set.push_back(
        mufuzz::corpus::GenerateContract(large_params, seed + 9001 * i));
  }

  RunPanel("(a) small contracts", small_set, 400, seed);
  RunPanel("(b) large contracts", large_set, 700, seed + 13);
  return 0;
}
