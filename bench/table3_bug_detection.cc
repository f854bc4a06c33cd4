// Reproduces Table III of the MuFuzz paper: true positives / false
// negatives per bug class for five emulated static analyzers and five
// fuzzing strategies over the D2 vulnerable suite. The paper's shape:
// MuFuzz reports the most TPs in every class (195 total, 20 FN), hybrid
// fuzzers (ConFuzzius/Smartian/IR-Fuzz) sit between sFuzz and MuFuzz, and
// the static analyzers trade FPs for FNs ('n/a' where unsupported).

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "analysis/static_detector.h"
#include "bench_util.h"

namespace {

using mufuzz::analysis::AllBugClasses;
using mufuzz::analysis::BugClass;
using mufuzz::analysis::BugClassCode;
using mufuzz::analysis::RunStaticDetector;
using mufuzz::analysis::StaticDetectorProfile;
using mufuzz::bench::CompileEntry;
using mufuzz::bench::PrintRule;
using mufuzz::corpus::CorpusEntry;
using mufuzz::fuzzer::StrategyConfig;

struct ToolScore {
  std::string name;
  std::map<BugClass, int> tp;
  std::map<BugClass, int> fn;
  std::map<BugClass, int> fp;
  std::set<BugClass> supported;  ///< empty = all nine

  bool Supports(BugClass bug) const {
    return supported.empty() || supported.contains(bug);
  }
};

void Account(ToolScore* score, const CorpusEntry& entry,
             const std::set<BugClass>& reported) {
  for (BugClass bug : AllBugClasses()) {
    if (!score->Supports(bug)) continue;
    bool truth = entry.HasBug(bug);
    bool found = reported.contains(bug);
    if (truth && found) score->tp[bug]++;
    if (truth && !found) score->fn[bug]++;
    if (!truth && found) score->fp[bug]++;
  }
}

void PrintScores(const std::vector<ToolScore>& scores) {
  PrintRule(110);
  std::printf("%-12s", "type");
  for (const auto& score : scores) std::printf(" %9s", score.name.c_str());
  std::printf("\n");
  PrintRule(110);
  for (BugClass bug : AllBugClasses()) {
    std::printf("%-12s", BugClassCode(bug));
    for (const auto& score : scores) {
      if (!score.Supports(bug)) {
        std::printf(" %9s", "n/a");
        continue;
      }
      char cell[32];
      std::snprintf(cell, sizeof(cell), "%d/%d",
                    score.tp.contains(bug) ? score.tp.at(bug) : 0,
                    score.fn.contains(bug) ? score.fn.at(bug) : 0);
      std::printf(" %9s", cell);
    }
    std::printf("\n");
  }
  PrintRule(110);
  std::printf("%-12s", "total");
  for (const auto& score : scores) {
    int tp = 0, fn = 0;
    for (const auto& [bug, n] : score.tp) tp += n;
    for (const auto& [bug, n] : score.fn) fn += n;
    char cell[32];
    std::snprintf(cell, sizeof(cell), "%d/%d", tp, fn);
    std::printf(" %9s", cell);
  }
  std::printf("\n");
  std::printf("%-12s", "FP");
  for (const auto& score : scores) {
    int fp = 0;
    for (const auto& [bug, n] : score.fp) fp += n;
    std::printf(" %9d", fp);
  }
  std::printf("\n");
  PrintRule(110);
}

std::set<BugClass> ToSet(const std::vector<BugClass>& v) {
  return {v.begin(), v.end()};
}

}  // namespace

int main(int argc, char** argv) {
  int suite_size = argc > 1 ? std::atoi(argv[1]) : 155;
  int execs = argc > 2 ? std::atoi(argv[2]) : 400;
  uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;

  auto suite = mufuzz::corpus::BuildD2(suite_size);
  std::printf("== Table III: TP/FN per bug class ==\n");
  std::printf("suite: %zu contracts, %d ground-truth annotations; fuzzing "
              "budget %d executions/contract\n",
              suite.size(), mufuzz::corpus::CountAnnotations(suite), execs);
  std::printf("cells are TP/FN; 'n/a' = class unsupported by the tool\n\n");

  // Static analyzers.
  struct StaticTool {
    const char* name;
    StaticDetectorProfile profile;
  };
  const std::vector<StaticTool> static_tools = {
      {"Oyente", mufuzz::analysis::OyenteProfile()},
      {"Mythril", mufuzz::analysis::MythrilProfile()},
      {"Osiris", mufuzz::analysis::OsirisProfile()},
      {"Securify", mufuzz::analysis::SecurifyProfile()},
      {"Slither", mufuzz::analysis::SlitherProfile()},
  };
  // Fuzzers.
  const std::vector<StrategyConfig> fuzz_tools = {
      StrategyConfig::SFuzz(), StrategyConfig::ConFuzzius(),
      StrategyConfig::Smartian(), StrategyConfig::IRFuzz(),
      StrategyConfig::MuFuzz()};

  std::vector<ToolScore> scores;
  for (const auto& tool : static_tools) {
    ToolScore score;
    score.name = tool.name;
    score.supported = ToSet(tool.profile.supported);
    scores.push_back(std::move(score));
  }
  for (const auto& tool : fuzz_tools) {
    ToolScore score;
    score.name = tool.name;
    scores.push_back(std::move(score));
  }

  // Compile once up front (the static detectors consume the artifacts
  // directly), then fan the (contract x fuzzer) campaign grid across the
  // parallel runner in one batch.
  std::vector<std::optional<mufuzz::lang::ContractArtifact>> artifacts;
  artifacts.reserve(suite.size());
  for (const CorpusEntry& entry : suite) {
    artifacts.push_back(CompileEntry(entry));
  }

  for (size_t e = 0; e < suite.size(); ++e) {
    if (!artifacts[e].has_value()) continue;
    for (size_t t = 0; t < static_tools.size(); ++t) {
      std::set<BugClass> reported;
      for (const auto& report :
           RunStaticDetector(*artifacts[e], static_tools[t].profile)) {
        reported.insert(report.bug);
      }
      Account(&scores[t], suite[e], reported);
    }
  }

  std::vector<mufuzz::engine::FuzzJob> jobs;
  std::vector<size_t> job_entry;  // job index -> suite index
  for (size_t e = 0; e < suite.size(); ++e) {
    if (!artifacts[e].has_value()) continue;
    for (const auto& tool : fuzz_tools) {
      mufuzz::engine::FuzzJob job;
      job.name = suite[e].name + "/" + tool.name;
      job.artifact = &*artifacts[e];
      job.config.strategy = tool;
      job.config.seed = seed;
      job.config.max_executions = execs;
      jobs.push_back(std::move(job));
      job_entry.push_back(e);
    }
  }
  auto outcomes = mufuzz::bench::RunJobs(jobs);
  for (size_t j = 0; j < outcomes.size(); ++j) {
    size_t t = j % fuzz_tools.size();
    Account(&scores[static_tools.size() + t], suite[job_entry[j]],
            outcomes[j].result.has_value() ? outcomes[j].result->bug_classes
                                           : std::set<BugClass>{});
  }

  PrintScores(scores);
  std::printf("\npaper totals for reference: Oyente 68/30, Mythril 78/43, "
              "Osiris 62/37, Securify 26/21,\nSlither 51/98, sFuzz 88/83, "
              "ConFuzzius 110/60, Smartian 94/102, IR-Fuzz 136/54, "
              "MuFuzz 195/20\n");
  return 0;
}
