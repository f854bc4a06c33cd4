// Reproduces Table IV of the MuFuzz paper: the real-world case study on D3
// (large, popular contracts). The paper runs MuFuzz on 100 contracts and
// reports, per bug class, the number of alarms with manual TP/FP triage,
// plus average coverage. Paper: 86 alarms, 81 TP / 5 FP (94% precision),
// average coverage 80.71%, 39 of 100 contracts with at least one alarm.
// Ground-truth labels from the generator replace the paper's manual audit.

#include <cstdio>
#include <cstdlib>
#include <map>

#include "bench_util.h"

int main(int argc, char** argv) {
  using mufuzz::analysis::AllBugClasses;
  using mufuzz::analysis::BugClass;
  using mufuzz::analysis::BugClassCode;
  using mufuzz::bench::PrintRule;

  int n = argc > 1 ? std::atoi(argv[1]) : 40;
  int execs = argc > 2 ? std::atoi(argv[2]) : 800;
  uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;

  auto dataset = mufuzz::corpus::BuildD3(n, seed);

  std::map<BugClass, int> reported, tp, fp;
  double coverage_sum = 0;
  int flagged_contracts = 0;
  int counted = 0;

  auto outcomes = mufuzz::bench::RunJobs(mufuzz::bench::MakeDatasetJobs(
      dataset, mufuzz::fuzzer::StrategyConfig::MuFuzz(), execs, seed));
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].result.has_value()) {
      std::fprintf(stderr, "[bench] skipping %s: %s\n",
                   outcomes[i].name.c_str(), outcomes[i].error.c_str());
      continue;
    }
    const mufuzz::fuzzer::CampaignResult& result = *outcomes[i].result;
    ++counted;
    coverage_sum += result.branch_coverage;
    if (!result.bug_classes.empty()) ++flagged_contracts;
    for (BugClass bug : result.bug_classes) {
      reported[bug]++;
      if (dataset[i].HasBug(bug)) {
        tp[bug]++;
      } else {
        fp[bug]++;
      }
    }
  }

  std::printf("== Table IV: real-world case study (D3 stand-in) ==\n");
  std::printf("%d large contracts, %d executions each, seed %llu\n\n",
              counted, execs, static_cast<unsigned long long>(seed));
  PrintRule(52);
  std::printf("%-8s %12s %8s %8s\n", "Bug ID", "Reported", "TP", "FP");
  PrintRule(52);
  int total_reported = 0, total_tp = 0, total_fp = 0;
  for (BugClass bug : AllBugClasses()) {
    int r = reported.contains(bug) ? reported.at(bug) : 0;
    int t = tp.contains(bug) ? tp.at(bug) : 0;
    int f = fp.contains(bug) ? fp.at(bug) : 0;
    total_reported += r;
    total_tp += t;
    total_fp += f;
    std::printf("%-8s %12d %8d %8d\n", BugClassCode(bug), r, t, f);
  }
  PrintRule(52);
  std::printf("%-8s %12d %8d %8d\n", "Total", total_reported, total_tp,
              total_fp);
  double precision = total_reported > 0
                         ? 100.0 * total_tp / total_reported
                         : 100.0;
  std::printf("\nprecision: %.1f%% (paper: 94%%)\n", precision);
  std::printf("average coverage: %.2f%% (paper: 80.71%%)\n",
              100.0 * coverage_sum / std::max(1, counted));
  std::printf("contracts with >=1 alarm: %d of %d (paper: 39 of 100)\n",
              flagged_contracts, counted);
  return 0;
}
