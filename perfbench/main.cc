// The repository benchmark program. One invocation runs one workload for a
// fixed wall-clock window and prints its metrics, one per line, then a JSON
// summary as the last line of standard output:
//
//   mufuzz_perfbench --workload campaign-large|eval-matrix|daemon-scan
//                    --seed N --seconds S --trace 0|1
//                    --daemon PATH/TO/mufuzzd [--trace-out FILE] [--smoke]
//
// --trace 0 measures the end-to-end metrics. --trace 1 is a separate pass
// that reruns the same work with the evm and fuzzer boundaries timed by
// decorators and every other layer timed around its public calls, and
// reports the per-layer metrics plus the tracing overhead. Per-layer totals
// cover a fixed amount of work (one pass, one matrix, a fixed job count), so
// they do not grow when a faster build fits more work in the window; only
// the overhead, a ratio, is taken over the whole window. Inputs come only
// from --seed. Every result is checked (see ResultBook); any mismatch makes
// the JSON line say "correct": false and the exit code 1. --smoke shrinks
// corpora and budgets for the self-test.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dependency_graph.h"
#include "analysis/statevar_analysis.h"
#include "common/alloc_stats.h"
#include "corpus/datasets.h"
#include "engine/fuzz_service.h"
#include "evm/code_cache.h"
#include "harness.h"
#include "lang/compiler.h"
#include "server/client.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string daemon;
  std::string trace_out;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// The JSON line's metrics: every workload reports each of these.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"execs_per_s", "execs/s"},
    {"jobs_per_s", "jobs/s"},
    {"job_latency_p50_ms", "ms"},
    {"coverage_pct", "%"},
    {"peak_rss_mb", "MiB"},
};

// End-to-end metrics that exist on some workloads only, or are 0 by
// design; printed as lines, not in the JSON summary.
constexpr MetricDef kWorkloadOnly[] = {
    {"job_latency_p99_ms", "ms"},   {"coverage_margin_pct", "pp"},
    {"bug_recall", "ratio"},        {"bug_precision", "ratio"},
    {"failed_frac", "ratio"},       {"latency_samples", "count"},
    {"host_probe_ms", "ms"},
};

// The JSON line's metrics under --trace 1. A layer a workload does not
// exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"corpus.gen_ms", "ms"},
    {"lang.compile_ms", "ms"},
    {"lang.compile_calls", "count"},
    {"lang.source_kb", "KiB"},
    {"analysis.dataflow_ms", "ms"},
    {"evm.deploy_ms", "ms"},
    {"evm.exec_busy_ms", "ms"},
    {"evm.sequences", "count"},
    {"evm.txs", "count"},
    {"evm.instructions", "count"},
    {"evm.ns_per_tx", "ns"},
    {"evm.minstr_per_s", "Minstr/s"},
    {"evm.share", "ratio"},
    {"evm.cache_hits", "count"},
    {"evm.cache_misses", "count"},
    {"evm.decode_ms", "ms"},
    {"fuzzer.self_ms", "ms"},
    {"fuzzer.sched_ms", "ms"},
    {"fuzzer.sched_selects", "count"},
    {"fuzzer.sched_adds", "count"},
    {"fuzzer.finalize_ms", "ms"},
    {"fuzzer.masks_computed", "count"},
    {"fuzzer.keep_ratio", "ratio"},
    {"fuzzer.evicted", "count"},
    {"common.allocs_per_exec", "allocs/exec"},
    {"engine.submit_us", "us"},
    {"engine.rounds", "count"},
    {"engine.rounds_per_job", "ratio"},
    {"engine.active_frac", "ratio"},
    {"engine.worker_util", "ratio"},
    {"server.codec_us_per_job", "us"},
    {"server.bytes_per_job", "bytes"},
    {"server.poll_rtt_us", "us"},
    {"server.overhead_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
};

/// One set-up takes only milliseconds, so a handful of samples is swamped by
/// noise: set-up is repeated for kSetupSeconds of wall time and reported as
/// the median. Under --trace 0 half the repetitions run before the measured
/// window and half after it, so the median spans the run and a change in the
/// host's speed during the run moves it less. Each repetition follows a host
/// probe and its time is taken at the nominal speed (see ProbeNs); the
/// median drops a repetition whose probe was disturbed. The cap bounds the
/// mufuzzd spawns of daemon-scan.
constexpr double kSetupSeconds = 2.0;
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 100;

/// Runs one set-up, `once`, repeatedly for half of kSetupSeconds, at least
/// kMinSetupReps and at most kMaxSetupReps times. `once` appends its time in
/// seconds to `setup_s`, which is then taken at the nominal host speed.
/// False when one failed.
bool RepeatSetup(const std::function<bool()>& once,
                 std::vector<double>* setup_s) {
  const int64_t end = NowNs() + static_cast<int64_t>(kSetupSeconds / 2 * 1e9);
  for (int i = 0;
       i < kMinSetupReps || (i < kMaxSetupReps && NowNs() < end); ++i) {
    const double probe_ns = ProbeNs();
    if (!once()) return false;
    setup_s->back() *= NominalScale(probe_ns);
  }
  return true;
}

/// Collects metrics and check failures, and prints them.
class Report {
 public:
  void Set(const std::string& name, double value) {
    if (!std::isfinite(value)) {
      Fail("metric " + name + " is not finite");
      value = 0;
    }
    values_[name] = value;
  }

  void Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  void Fail(const std::string& what) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Prints every metric as a line, the digest, and the JSON summary last.
  void Print(const Options& o, uint64_t digest) {
    auto line = [&](const MetricDef& m) {
      auto it = values_.find(m.name);
      if (it != values_.end()) {
        std::printf("metric %-26s %16.6f %s\n", m.name, it->second, m.unit);
      } else if (o.trace) {
        std::printf("metric %-26s %16.6f %s (layer not exercised)\n", m.name,
                    0.0, m.unit);
      }
    };
    if (o.trace) {
      for (const MetricDef& m : kPerLayer) line(m);
    } else {
      for (const MetricDef& m : kEndToEnd) line(m);
      for (const MetricDef& m : kWorkloadOnly) line(m);
    }
    std::printf("digest %s seed=%llu %016llx\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(digest));

    std::string json = "{\"metrics\": {";
    bool first = true;
    auto add = [&](const MetricDef& m, double value) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}", first ? "" : ", ", m.name, value,
                    m.unit);
      json += buf;
      first = false;
    };
    if (o.trace) {
      for (const MetricDef& m : kPerLayer) {
        auto it = values_.find(m.name);
        add(m, it == values_.end() ? 0.0 : it->second);
      }
    } else {
      for (const MetricDef& m : kEndToEnd) {
        auto it = values_.find(m.name);
        if (it == values_.end()) {
          Fail(std::string("end-to-end metric ") + m.name + " missing");
          add(m, 0);
        } else {
          add(m, it->second);
        }
      }
    }
    char tail[160];
    std::snprintf(tail, sizeof(tail),
                  "}, \"correct\": %s, \"attempted\": %llu, \"failed\": "
                  "%llu}",
                  correct_ ? "true" : "false",
                  static_cast<unsigned long long>(attempted),
                  static_cast<unsigned long long>(failed));
    json += tail;
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

  bool correct() const { return correct_; }

 private:
  std::map<std::string, double> values_;
  bool correct_ = true;
};

// ------------------------------------------------------------ Shared bits --

/// A campaign result the workload accepts: ran to budget, not cancelled,
/// over a contract that has branches.
bool ValidResult(const fuzzer::CampaignResult& r, int budget) {
  return !r.cancelled && r.executions >= static_cast<uint64_t>(budget) &&
         r.total_jumpis > 0 && r.branch_coverage > 0;
}

fuzzer::CampaignConfig MakeConfig(const fuzzer::StrategyConfig& strategy,
                                  uint64_t seed, uint64_t key, int budget) {
  fuzzer::CampaignConfig c;
  c.strategy = strategy;
  c.seed = seed * 1'000'003ULL + key;
  c.max_executions = budget;
  return c;
}

/// Compiles every entry; a failure is a failed operation and a failed check.
std::vector<lang::ContractArtifact> CompileAll(
    const std::vector<corpus::CorpusEntry>& entries, Report* rep) {
  std::vector<lang::ContractArtifact> out;
  out.reserve(entries.size());
  for (const corpus::CorpusEntry& e : entries) {
    auto r = lang::CompileContract(e.source);
    if (!r.ok()) {
      rep->failed += 1;
      rep->Fail("compile " + e.name + ": " + r.status().ToString());
      continue;
    }
    out.push_back(std::move(r).value());
  }
  return out;
}

/// Code-cache activity between two snapshots of the process-wide cache.
evm::CodeCacheStats CacheDelta(const evm::CodeCacheStats& before,
                               const evm::CodeCacheStats& after) {
  evm::CodeCacheStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.decode_ns = after.decode_ns - before.decode_ns;
  return d;
}

evm::CodeCacheStats CacheNow() { return evm::CodeCache::Global()->stats(); }

/// evm / fuzzer / common per-layer metrics of a traced pass over a fixed
/// amount of work, with the code-cache activity over the same work.
void TracedLayerMetrics(const Tracer& t, double allocs_per_exec,
                        const evm::CodeCacheStats& cache, Report* rep) {
  const LayerCounters& c = t.counters;
  int64_t run_ns = t.Total(Phase::kRun);
  rep->Set("evm.deploy_ms", Ms(c.deploy_ns));
  rep->Set("evm.exec_busy_ms", Ms(c.exec_ns));
  rep->Set("evm.sequences", static_cast<double>(c.sequences));
  rep->Set("evm.txs", static_cast<double>(c.txs));
  rep->Set("evm.instructions", static_cast<double>(c.instructions));
  rep->Set("evm.ns_per_tx",
           c.txs ? static_cast<double>(c.exec_ns) / c.txs : 0.0);
  rep->Set("evm.minstr_per_s",
           c.exec_ns ? static_cast<double>(c.instructions) * 1e3 / c.exec_ns
                     : 0.0);
  rep->Set("evm.share",
           run_ns ? static_cast<double>(c.exec_ns) / run_ns : 0.0);
  rep->Set("fuzzer.self_ms", Ms(run_ns - c.exec_ns - c.sched_ns));
  rep->Set("fuzzer.sched_ms", Ms(c.sched_ns));
  rep->Set("fuzzer.sched_selects", static_cast<double>(c.selects));
  rep->Set("fuzzer.sched_adds", static_cast<double>(c.adds));
  rep->Set("fuzzer.finalize_ms", Ms(t.Total(Phase::kFinalize)));
  rep->Set("fuzzer.masks_computed", static_cast<double>(t.masks));
  rep->Set("fuzzer.keep_ratio",
           t.executions ? static_cast<double>(t.admitted) / t.executions
               : 0.0);
  rep->Set("fuzzer.evicted", static_cast<double>(t.evicted));
  rep->Set("common.allocs_per_exec", allocs_per_exec);
  rep->Set("evm.cache_hits", static_cast<double>(cache.hits));
  rep->Set("evm.cache_misses", static_cast<double>(cache.misses));
  rep->Set("evm.decode_ms", Ms(static_cast<int64_t>(cache.decode_ns)));
}

/// Appends spans to `path` as JSON lines: one object per span, times
/// relative to the pass's first span.
void WriteSpans(const std::string& path, const char* pass,
                const std::vector<Span>& spans) {
  if (path.empty() || spans.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return;
  int64_t base = spans.front().start_ns;
  for (const Span& s : spans) base = std::min(base, s.start_ns);
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"pass\": \"%s\", \"job\": %llu, \"phase\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 pass, static_cast<unsigned long long>(s.job),
                 PhaseName(s.phase), static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base));
  }
  std::fclose(f);
}

/// Per-layer set-up costs, measured once outside the set-up window with a
/// compile and an analysis span per contract (job id = contract index).
void SetupLayerMetrics(const std::vector<corpus::CorpusEntry>& entries,
                       double gen_ms, const std::string& trace_out,
                       Report* rep) {
  Tracer t;
  size_t bytes = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    bytes += entries[i].source.size();
    int64_t t0 = NowNs();
    auto art = lang::CompileContract(entries[i].source);
    int64_t t1 = NowNs();
    t.Record(i, Phase::kCompile, t0, t1);
    if (!art.ok()) continue;
    analysis::DependencyGraph::Build(
        analysis::AnalyzeDataflow(*art.value().ast));
    t.Record(i, Phase::kAnalyze, t1, NowNs());
  }
  rep->Set("corpus.gen_ms", gen_ms);
  rep->Set("lang.compile_ms", Ms(t.Total(Phase::kCompile)));
  rep->Set("lang.compile_calls", static_cast<double>(entries.size()));
  rep->Set("lang.source_kb", static_cast<double>(bytes) / 1024.0);
  rep->Set("analysis.dataflow_ms", Ms(t.Total(Phase::kAnalyze)));
  WriteSpans(trace_out, "setup", t.spans);
}

std::vector<double> LatenciesMs(const LoopRun& run) {
  std::vector<double> out;
  out.reserve(run.jobs.size());
  for (const JobRecord& j : run.jobs) out.push_back(Ms(j.end_ns - j.start_ns));
  return out;
}

/// Counts a closed-loop run's jobs into attempted/failed and its result
/// mismatches into the checks.
void Account(const LoopRun& run, const char* pass, Report* rep) {
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  for (const JobRecord& j : run.jobs) {
    failed += j.ok ? 0 : 1;
    mismatched += j.mismatch ? 1 : 0;
  }
  rep->attempted += run.jobs.size();
  rep->failed += failed;
  rep->Expect(mismatched == 0,
              std::string(pass) + ": " + std::to_string(mismatched) +
                  " results differ from the first result of the same job");
}

/// Records a finished job: validity, executions, and the book check.
void Accept(ResultBook* book, uint64_t key, const fuzzer::CampaignResult& r,
            int budget, JobRecord* rec) {
  rec->ok = ValidResult(r, budget);
  rec->executions = r.executions;
  rec->mismatch = !book->Check(key, r);
}

double MeanCoveragePct(const ResultBook& book) {
  double sum = 0;
  for (const auto& [key, r] : book.results()) sum += r.branch_coverage;
  return book.results().empty() ? 0 : 100.0 * sum / book.results().size();
}

/// Tracing overhead from the time the same work took untraced and traced:
/// the share of throughput tracing costs.
double OverheadPct(double untraced_time, double traced_time) {
  return traced_time > 0 ? 100.0 * (traced_time - untraced_time) / traced_time
                         : 0;
}

/// What a paired pass measured. The tracer, allocations and cache activity
/// cover the first pass over the jobs only, a fixed amount of work however
/// fast the build is.
struct PairedRun {
  Tracer tracer;  ///< the traced halves of the first pass
  double allocs_per_exec = 0;
  evm::CodeCacheStats cache;
  double overhead_pct = 0;  ///< over every pass
};

/// The traced pass of campaign-large and eval-matrix: passes over `jobs`
/// jobs on `workers` threads, each job run through RunCampaign and then
/// traced, back to back on one thread, so a drift in the host's speed hits
/// both halves alike. Both results go through the book. Passes repeat until
/// `seconds` have passed; the overhead compares the halves' summed times
/// over all of them. `job(key)` gives the artifact and config of job `key`.
PairedRun RunPaired(
    int workers, uint64_t jobs, double seconds, int budget, ResultBook* book,
    Report* rep, const char* name,
    const std::function<std::pair<const lang::ContractArtifact*,
                                  fuzzer::CampaignConfig>(uint64_t)>& job) {
  PairedRun out;
  std::vector<Tracer> first(static_cast<size_t>(workers));
  std::atomic<int64_t> untraced_ns{0};
  std::atomic<int64_t> traced_ns{0};
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  int pass = 0;
  do {
    std::vector<Tracer> later(static_cast<size_t>(workers));
    std::vector<Tracer>& tracers = pass == 0 ? first : later;
    uint64_t a0 = CurrentAllocStats().allocs;
    evm::CodeCacheStats c0 = CacheNow();
    LoopRun run = ClosedLoop(
        workers, 0, jobs, jobs, [&](int client, uint64_t key, JobRecord* rec) {
          auto [art, config] = job(key);
          int64_t t0 = NowNs();
          fuzzer::CampaignResult plain = fuzzer::RunCampaign(*art, config);
          int64_t t1 = NowNs();
          fuzzer::CampaignResult traced = RunTraced(
              *art, config, key, &tracers[static_cast<size_t>(client)]);
          int64_t t2 = NowNs();
          untraced_ns += t1 - t0;
          traced_ns += t2 - t1;
          Accept(book, key, plain, budget, rec);
          rec->mismatch = rec->mismatch || !book->Check(key, traced);
        });
    if (pass == 0) {
      out.tracer = MergeAll(first);
      // Both halves run the same campaigns, so they allocate alike.
      uint64_t allocs = CurrentAllocStats().allocs - a0;
      out.allocs_per_exec =
          out.tracer.executions
              ? static_cast<double>(allocs) / (2.0 * out.tracer.executions)
              : 0.0;
      out.cache = CacheDelta(c0, CacheNow());
    }
    Account(run, name, rep);
    ++pass;
  } while (NowNs() < deadline);
  out.overhead_pct = OverheadPct(static_cast<double>(untraced_ns.load()),
                                 static_cast<double>(traced_ns.load()));
  return out;
}

// Timing under --trace 0 is best-of at the nominal host speed: the work of
// a run repeats (passes over the contracts, whole matrices, one-second
// segments of traffic), host probes run between repetitions, and each timing
// comes from the fastest repetition, scaled by the run's median probe (see
// ProbeNs). The probe removes the host's load over minutes; the fastest
// repetition drops the bursts of a second or two. Scaling each repetition
// by its own probe instead would let the fastest one be picked for a probe
// that happened to be slowed.

// --------------------------------------------------------- campaign-large --

// D1-large contracts fuzzed one after another on one thread through
// RunCampaign: the paper's hot path, where evm and fuzzer do the work.
int CampaignLarge(const Options& o, Report* rep, uint64_t* digest) {
  const int contracts = o.smoke ? 3 : 16;
  const int budget = o.smoke ? 300 : 4000;
  const fuzzer::StrategyConfig strategy = fuzzer::StrategyConfig::MuFuzz();

  std::vector<corpus::CorpusEntry> corpus;
  std::vector<lang::ContractArtifact> arts;
  std::vector<double> setup_s, gen_ms;
  auto setup_once = [&] {
    Report scratch;
    arts.clear();
    corpus.clear();
    int64_t t0 = NowNs();
    corpus = corpus::BuildD1Large(contracts, o.seed);
    int64_t t1 = NowNs();
    arts = CompileAll(corpus, setup_s.empty() ? rep : &scratch);
    // One campaign at a time, as the serial loop holds them, so set-up does
    // not raise the peak resident set above the workload's own.
    for (size_t i = 0; i < arts.size(); ++i) {
      fuzzer::Campaign campaign(&arts[i],
                                MakeConfig(strategy, o.seed, i, budget));
    }
    int64_t t2 = NowNs();
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    gen_ms.push_back(Ms(t1 - t0));
    return arts.size() == corpus.size();
  };
  if (!RepeatSetup(setup_once, &setup_s)) return 1;
  const uint64_t n = arts.size();
  auto job = [&](uint64_t key) {
    return std::make_pair(&arts[key % n],
                          MakeConfig(strategy, o.seed, key % n, budget));
  };

  ResultBook book;
  // Peak RSS is sampled after a fixed amount of work on every workload:
  // FuzzService and mufuzzd keep every outcome, so a later sample would grow
  // with the number of jobs a faster build fits in the window.
  double rss = 0;  // after set-up and the first pass

  if (!o.trace) {
    LoopRun run = ClosedLoop(
        1, o.seconds, n, n, [&](int, uint64_t idx, JobRecord* rec) {
          auto [art, config] = job(idx);
          rec->probe_ns = ProbeNs();
          rec->start_ns = NowNs();
          Accept(&book, idx % n, fuzzer::RunCampaign(*art, config), budget,
                 rec);
          if (idx + 1 == n) rss = PeakRssMb();
        });
    Account(run, "campaign-large", rep);
    // One pass over the contracts, each timed by the fastest of its passes.
    std::vector<double> best_s(n, 0);
    uint64_t execs = 0;
    std::vector<double> probes;
    for (const JobRecord& j : run.jobs) {
      probes.push_back(j.probe_ns);
      double s = static_cast<double>(j.end_ns - j.start_ns) / 1e9;
      double& best = best_s[j.index % n];
      best = best == 0 ? s : std::min(best, s);
      if (j.index < n) execs += j.executions;
    }
    const double scale = NominalScale(Median(probes));
    double pass_s = 0;
    for (double s : best_s) pass_s += s * scale;
    if (!RepeatSetup(setup_once, &setup_s)) return 1;
    rep->Set("setup_s", Median(setup_s));
    rep->Set("execs_per_s", static_cast<double>(execs) / pass_s);
    rep->Set("jobs_per_s", static_cast<double>(n) / pass_s);
    rep->Set("job_latency_p50_ms", Median(best_s) * 1e3 * scale);
    rep->Set("host_probe_ms", Median(probes) / 1e6);
    rep->Set("latency_samples", static_cast<double>(run.jobs.size()));
    rep->Set("coverage_pct", MeanCoveragePct(book));
    rep->Set("peak_rss_mb", rss);
  } else {
    PairedRun paired = RunPaired(1, n, o.seconds, budget, &book, rep,
                                 "campaign-large traced vs untraced", job);
    SetupLayerMetrics(corpus, Median(gen_ms), o.trace_out, rep);
    TracedLayerMetrics(paired.tracer, paired.allocs_per_exec, paired.cache,
                       rep);
    rep->Set("bench.trace_overhead_pct", paired.overhead_pct);
    WriteSpans(o.trace_out, "traced", paired.tracer.spans);
  }
  for (const auto& [key, r] : book.results()) {
    rep->Expect(ValidResult(r, budget),
                "campaign-large: invalid result for contract " +
                    std::to_string(key));
  }
  *digest = book.Digest();
  return 0;
}

// ------------------------------------------------------------ eval-matrix --

// The Fig. 6 matrix: D1-small + D1-large x {MuFuzz, IR-Fuzz, ConFuzzius,
// sFuzz}, submitted at once to an in-process FuzzService and waited for.
int EvalMatrix(const Options& o, Report* rep, uint64_t* digest) {
  const int small = o.smoke ? 1 : 32;
  const int large = o.smoke ? 1 : 32;
  const int budget = o.smoke ? 200 : 1500;
  const std::vector<fuzzer::StrategyConfig> strategies = {
      fuzzer::StrategyConfig::MuFuzz(), fuzzer::StrategyConfig::IRFuzz(),
      fuzzer::StrategyConfig::ConFuzzius(), fuzzer::StrategyConfig::SFuzz()};
  const int workers =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  std::vector<corpus::CorpusEntry> corpus;
  std::vector<lang::ContractArtifact> arts;
  std::unique_ptr<engine::FuzzService> service;
  std::vector<double> setup_s, gen_ms;
  auto setup_once = [&] {
    Report scratch;
    service.reset();
    arts.clear();
    corpus.clear();
    int64_t t0 = NowNs();
    corpus = corpus::BuildD1Small(small, o.seed);
    std::vector<corpus::CorpusEntry> big = corpus::BuildD1Large(large, o.seed);
    corpus.insert(corpus.end(), big.begin(), big.end());
    int64_t t1 = NowNs();
    arts = CompileAll(corpus, setup_s.empty() ? rep : &scratch);
    engine::ServiceOptions options;
    options.workers = workers;
    service = std::make_unique<engine::FuzzService>(options);
    int64_t t2 = NowNs();
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    gen_ms.push_back(Ms(t1 - t0));
    return arts.size() == corpus.size();
  };
  if (!RepeatSetup(setup_once, &setup_s)) return 1;
  const uint64_t contracts = arts.size();
  const uint64_t m = contracts * strategies.size();
  // Matrix job `key`: strategy key / contracts over contract key % contracts;
  // a contract keeps its campaign seed across strategies.
  auto config = [&](uint64_t key) {
    return MakeConfig(strategies[key / contracts], o.seed, key % contracts,
                      budget);
  };

  ResultBook book;
  double rss = 0;  // after set-up and the first matrix
  struct ServicePass {
    std::vector<double> execs_rate, jobs_rate, latency_ms;
    std::vector<double> matrix_p50_ms;  ///< median latency of each matrix
    std::vector<double> probe_ns;       ///< host probes between matrices
    double active_ms = 0;
    int64_t submit_ns = 0;
    uint64_t jobs = 0;
    uint64_t rounds = 0;
    int64_t wall_ns = 0;
  };
  // Whole matrices, submit-all then wait-all, until the window closes; one
  // matrix when `seconds` is 0. Under --trace 0 a host probe on `workers`
  // threads runs before and after each matrix.
  auto probe = [&](ServicePass* sp) {
    if (!o.trace) sp->probe_ns.push_back(ProbeNs(workers));
  };
  auto run_service = [&](double seconds) {
    ServicePass sp;
    uint64_t rounds0 = service->Stats().rounds;
    int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    probe(&sp);
    do {
      int64_t t0 = NowNs();
      std::vector<std::pair<uint64_t, engine::JobTicket>> tickets;
      std::vector<int64_t> submitted;
      for (uint64_t key = 0; key < m; ++key) {
        engine::FuzzJob job;
        job.name = corpus[key % contracts].name;
        job.artifact = &arts[key % contracts];
        job.config = config(key);
        int64_t ts = NowNs();
        auto ticket = service->Submit(std::move(job));
        sp.submit_ns += NowNs() - ts;
        rep->attempted += 1;
        if (!ticket.ok()) {
          rep->failed += 1;
          continue;
        }
        tickets.emplace_back(key, ticket.value());
        submitted.push_back(ts);
      }
      uint64_t execs = 0;
      for (size_t i = 0; i < tickets.size(); ++i) {
        engine::JobOutcome out = service->Wait(tickets[i].second);
        sp.latency_ms.push_back(Ms(NowNs() - submitted[i]));
        sp.active_ms += out.elapsed_ms;
        if (!out.result.has_value() || !ValidResult(*out.result, budget)) {
          rep->failed += 1;
          continue;
        }
        execs += out.result->executions;
        rep->Expect(book.Check(tickets[i].first, *out.result),
                    "eval-matrix: job " + std::to_string(tickets[i].first) +
                        " differs from its first result");
      }
      double s = static_cast<double>(NowNs() - t0) / 1e9;
      probe(&sp);
      sp.execs_rate.push_back(static_cast<double>(execs) / s);
      sp.jobs_rate.push_back(static_cast<double>(m) / s);
      sp.matrix_p50_ms.push_back(Median(std::vector<double>(
          sp.latency_ms.end() - static_cast<long>(tickets.size()),
          sp.latency_ms.end())));
      sp.jobs += tickets.size();
      if (rss == 0) rss = PeakRssMb();
    } while (NowNs() < deadline);
    sp.wall_ns = NowNs() - start;
    sp.rounds = service->Stats().rounds - rounds0;
    return sp;
  };

  auto mean_cov = [&](uint64_t strategy) {
    double sum = 0;
    for (uint64_t c = 0; c < contracts; ++c) {
      auto it = book.results().find(strategy * contracts + c);
      if (it != book.results().end()) sum += it->second.branch_coverage;
    }
    return 100.0 * sum / static_cast<double>(contracts);
  };

  if (!o.trace) {
    ServicePass sp = run_service(o.seconds);
    if (!RepeatSetup(setup_once, &setup_s)) return 1;
    rep->Set("setup_s", Median(setup_s));
    // The fastest matrix.
    const double scale = NominalScale(Median(sp.probe_ns));
    rep->Set("execs_per_s", *std::max_element(sp.execs_rate.begin(),
                                              sp.execs_rate.end()) / scale);
    rep->Set("jobs_per_s", *std::max_element(sp.jobs_rate.begin(),
                                             sp.jobs_rate.end()) / scale);
    rep->Set("job_latency_p50_ms",
             *std::min_element(sp.matrix_p50_ms.begin(),
                               sp.matrix_p50_ms.end()) * scale);
    rep->Set("host_probe_ms", Median(sp.probe_ns) / 1e6);
    rep->Set("latency_samples", static_cast<double>(sp.latency_ms.size()));
    rep->Set("coverage_pct", mean_cov(0));
    double best_baseline = 0;
    for (uint64_t s = 1; s < strategies.size(); ++s) {
      best_baseline = std::max(best_baseline, mean_cov(s));
    }
    rep->Set("coverage_margin_pct", mean_cov(0) - best_baseline);
  } else {
    // One matrix on the service, for the engine metrics and the code-cache
    // activity the untraced workload sees (a cold cache, then hits).
    evm::CodeCacheStats c0 = CacheNow();
    ServicePass sp = run_service(0);
    evm::CodeCacheStats cache = CacheDelta(c0, CacheNow());
    rep->Set("engine.submit_us",
             sp.jobs ? Ms(sp.submit_ns) * 1e3 / sp.jobs : 0.0);
    rep->Set("engine.rounds", static_cast<double>(sp.rounds));
    rep->Set("engine.rounds_per_job",
             sp.jobs ? static_cast<double>(sp.rounds) / sp.jobs : 0.0);
    double latency_sum = 0;
    for (double l : sp.latency_ms) latency_sum += l;
    rep->Set("engine.active_frac",
             latency_sum > 0 ? sp.active_ms / latency_sum : 0.0);
    rep->Set("engine.worker_util",
             sp.active_ms / (Ms(sp.wall_ns) * workers));

    // The same matrix on a benchmark-owned pool of `workers` threads, so
    // the decorated campaigns see the same concurrency. FuzzService builds
    // its campaigns itself and cannot take the decorators.
    PairedRun paired = RunPaired(
        workers, m, o.seconds, budget, &book, rep,
        "eval-matrix traced vs untraced vs service", [&](uint64_t key) {
          return std::make_pair(&arts[key % contracts], config(key));
        });
    SetupLayerMetrics(corpus, Median(gen_ms), o.trace_out, rep);
    TracedLayerMetrics(paired.tracer, paired.allocs_per_exec, cache, rep);
    rep->Set("bench.trace_overhead_pct", paired.overhead_pct);
    WriteSpans(o.trace_out, "traced", paired.tracer.spans);
  }
  rep->Expect(book.results().size() == m,
              "eval-matrix: not every matrix job produced a result");
  rep->Set("peak_rss_mb", rss);
  *digest = book.Digest();
  return 0;
}

// ------------------------------------------------------------ daemon-scan --

// mufuzzd on loopback; closed-loop clients send SUBMIT then WAIT for short
// D2 jobs, each sending its next job when its previous result arrived.
int DaemonScan(const Options& o, Report* rep, uint64_t* digest) {
  const int clients = 4;
  const int workers = 4;
  const int budget = o.smoke ? 100 : 200;
  const uint64_t min_jobs = o.smoke ? 20 : 1000;

  std::vector<corpus::CorpusEntry> d2;
  std::vector<server::SubmitRequest> requests;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<server::MufuzzClient>> conns;
  std::vector<double> setup_s, gen_ms;
  auto setup_once = [&] {
    conns.clear();
    daemon.reset();
    int64_t t0 = NowNs();
    d2 = corpus::BuildD2();
    // The seed picks the order the jobs arrive in and their campaign seeds.
    Rng rng(o.seed);
    for (size_t i = d2.size(); i > 1; --i) {
      std::swap(d2[i - 1], d2[rng.NextBelow(i)]);
    }
    requests.clear();
    for (size_t key = 0; key < d2.size(); ++key) {
      server::SubmitRequest req;
      req.tenant = "ci";
      req.name = d2[key].name;
      req.source = d2[key].source;
      req.config = MakeConfig(fuzzer::StrategyConfig::MuFuzz(), o.seed, key,
                              budget);
      requests.push_back(std::move(req));
    }
    int64_t t1 = NowNs();
    daemon = std::make_unique<Daemon>();
    if (!daemon->Start(o.daemon, workers)) {
      rep->Fail("could not start mufuzzd at " + o.daemon);
      return false;
    }
    for (int c = 0; c < clients; ++c) {
      conns.push_back(std::make_unique<server::MufuzzClient>());
      Status st = conns.back()->Connect("127.0.0.1", daemon->port());
      if (!st.ok()) {
        rep->Fail("connect: " + st.ToString());
        return false;
      }
    }
    int64_t t2 = NowNs();
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    gen_ms.push_back(Ms(t1 - t0));
    return true;
  };
  if (!RepeatSetup(setup_once, &setup_s)) return 1;
  const uint64_t m = requests.size();

  ResultBook book;
  struct First {
    bool set = false;
    uint64_t key = 0;
    fuzzer::CampaignResult result;
  };
  std::vector<First> firsts(clients);
  uint64_t last_ticket = 0;
  double rss = 0;  // mufuzzd's, once its first min_jobs jobs are done
  auto wire_job = [&](int client, uint64_t idx, JobRecord* rec,
                      Tracer* tracer) {
    uint64_t key = idx % m;
    server::MufuzzClient& conn = *conns[static_cast<size_t>(client)];
    int64_t t0 = NowNs();
    auto ticket = conn.Submit(requests[key]);
    int64_t t1 = NowNs();
    if (!ticket.ok()) return;
    auto out = conn.Wait(ticket.value());
    int64_t t2 = NowNs();
    if (tracer != nullptr) {
      tracer->Record(idx, Phase::kSubmit, t0, t1);
      tracer->Record(idx, Phase::kWait, t1, t2);
    }
    if (!out.ok() || !out.value().has_result || !out.value().error.empty()) {
      return;
    }
    Accept(&book, key, out.value().result, budget, rec);
    First& first = firsts[static_cast<size_t>(client)];
    if (!first.set) first = {true, key, out.value().result};
    if (client == 0) last_ticket = ticket.value();
    if (idx + 1 == min_jobs && rss == 0) {
      rss = PeakRssMb(std::to_string(daemon->pid()));
    }
  };
  // Under --trace 1 every odd job records client spans and the even jobs
  // are the untraced baseline, so a drift in the host's speed hits both.
  std::vector<Tracer> wire_tracers(clients);
  // Under --trace 0 the stream runs in one-second segments with a host probe
  // on `workers` threads before and after each, while no job is in flight.
  struct Segment {
    size_t first_job, end_job;  ///< its jobs in wire.jobs
    int64_t start_ns, end_ns;
  };
  std::vector<Segment> segments;
  std::vector<double> probes;
  LoopRun wire;
  if (o.trace) {
    wire = ClosedLoop(clients, o.seconds / 2, 2 * min_jobs, 2,
                      [&](int client, uint64_t idx, JobRecord* rec) {
                        wire_job(client, idx, rec,
                                 idx % 2 ? &wire_tracers[client] : nullptr);
                      });
  } else {
    wire.start_ns = NowNs();
    const int64_t deadline =
        wire.start_ns + static_cast<int64_t>(o.seconds * 1e9);
    probes.push_back(ProbeNs(workers));
    do {
      LoopRun seg = ClosedLoop(
          clients, 1.0, 0, 1,
          [&](int client, uint64_t idx, JobRecord* rec) {
            wire_job(client, idx, rec, nullptr);
          },
          wire.jobs.size());
      probes.push_back(ProbeNs(workers));
      segments.push_back({wire.jobs.size(),
                          wire.jobs.size() + seg.jobs.size(), seg.start_ns,
                          seg.end_ns});
      wire.jobs.insert(wire.jobs.end(), seg.jobs.begin(), seg.jobs.end());
    } while (NowNs() < deadline || wire.jobs.size() < min_jobs);
    wire.end_ns = NowNs();
  }
  Account(wire, "daemon-scan", rep);
  std::vector<double> latency, traced_latency;
  for (const JobRecord& j : wire.jobs) {
    (o.trace && j.index % 2 ? traced_latency : latency)
        .push_back(Ms(j.end_ns - j.start_ns));
  }

  // The first job of each connection, re-run directly, must equal the
  // result that came over the wire.
  for (const First& f : firsts) {
    if (!f.set) continue;
    auto art = lang::CompileContract(d2[f.key].source);
    rep->Expect(art.ok() && fuzzer::RunCampaign(art.value(),
                                                requests[f.key].config) ==
                                f.result,
                "daemon-scan: wire result differs from RunCampaign for " +
                    d2[f.key].name);
  }

  if (!o.trace) {
    // Completions per second and median latency of each segment; each
    // metric is the fastest segment's.
    double best_jobs = 0, best_execs = 0, best_p50 = 0;
    for (const Segment& seg : segments) {
      if (seg.end_job == seg.first_job) continue;
      const double s = static_cast<double>(seg.end_ns - seg.start_ns) / 1e9;
      double execs = 0;
      std::vector<double> ms;
      for (size_t i = seg.first_job; i < seg.end_job; ++i) {
        const JobRecord& j = wire.jobs[i];
        execs += static_cast<double>(j.executions);
        ms.push_back(Ms(j.end_ns - j.start_ns));
      }
      const double p50 = Median(ms);
      best_jobs = std::max(best_jobs, static_cast<double>(ms.size()) / s);
      best_execs = std::max(best_execs, execs / s);
      best_p50 = best_p50 == 0 ? p50 : std::min(best_p50, p50);
    }
    const double scale = NominalScale(Median(probes));
    if (!RepeatSetup(setup_once, &setup_s)) return 1;
    rep->Set("setup_s", Median(setup_s));
    rep->Set("execs_per_s", best_execs / scale);
    rep->Set("jobs_per_s", best_jobs / scale);
    rep->Set("job_latency_p50_ms", best_p50 * scale);
    rep->Set("host_probe_ms", Median(probes) / 1e6);
    rep->Set("job_latency_p99_ms", Percentile(latency, 0.99));
    rep->Set("latency_samples", static_cast<double>(latency.size()));
    rep->Set("coverage_pct", MeanCoveragePct(book));
    // Findings against the ground-truth labels, per distinct contract.
    uint64_t tp = 0, fn = 0, fp = 0;
    for (const auto& [key, r] : book.results()) {
      for (analysis::BugClass bug : analysis::AllBugClasses()) {
        bool truth = d2[key].HasBug(bug);
        bool found = r.Found(bug);
        tp += truth && found;
        fn += truth && !found;
        fp += !truth && found;
      }
    }
    rep->Set("bug_recall", tp + fn ? static_cast<double>(tp) / (tp + fn) : 0);
    rep->Set("bug_precision",
             tp + fp ? static_cast<double>(tp) / (tp + fp) : 0);
  } else {
    rep->Set("bench.trace_overhead_pct",
             OverheadPct(Median(latency), Median(traced_latency)));
    WriteSpans(o.trace_out, "wire", MergeAll(wire_tracers).spans);

    // POLL on a finished ticket: transport plus handler floor.
    std::vector<double> poll_us;
    for (int i = 0; i < 200; ++i) {
      int64_t t0 = NowNs();
      auto p = conns[0]->Poll(last_ticket);
      poll_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      rep->Expect(p.ok() && p.value().state == engine::JobState::kDone,
                  "daemon-scan: POLL on a finished ticket failed");
    }
    rep->Set("server.poll_rtt_us", Median(poll_us));

    // The codec on this workload's real payloads.
    size_t bytes = 0;
    int64_t codec_ns = 0;
    const int codec_reps = 5;
    for (int r = 0; r < codec_reps; ++r) {
      for (const auto& [key, result] : book.results()) {
        int64_t t0 = NowNs();
        Bytes req = server::EncodeSubmitRequest(requests[key]);
        server::SubmitRequest req_back;
        Status s1 = server::DecodeSubmitRequest(req, &req_back);
        engine::JobOutcome job_out;
        job_out.name = requests[key].name;
        job_out.result = result;
        Bytes out = server::EncodeOutcome(job_out);
        server::WireOutcome out_back;
        Status s2 = server::DecodeOutcome(out, &out_back);
        codec_ns += NowNs() - t0;
        if (r == 0) {
          bytes += req.size() + out.size();
          rep->Expect(s1.ok() && s2.ok() && out_back.result == result,
                      "daemon-scan: codec round trip differs");
        }
      }
    }
    const double distinct = static_cast<double>(book.results().size());
    rep->Set("server.codec_us_per_job",
             static_cast<double>(codec_ns) / 1e3 / (codec_reps * distinct));
    rep->Set("server.bytes_per_job", static_cast<double>(bytes) / distinct);

    // The same job stream through an in-process FuzzService: exactly
    // min_jobs jobs, so the engine totals cover a fixed amount of work. The
    // code-cache activity is taken here, where 155 distinct contracts meet
    // the cache as they do in the daemon.
    evm::CodeCacheStats cache;
    {
      engine::ServiceOptions options;
      options.workers = workers;
      engine::FuzzService service(options);
      std::atomic<int64_t> submit_ns{0};
      evm::CodeCacheStats c0 = CacheNow();
      LoopRun svc = ClosedLoop(
          clients, 0, min_jobs, 1,
          [&](int, uint64_t idx, JobRecord* rec) {
            uint64_t key = idx % m;
            engine::FuzzJob job;
            job.name = requests[key].name;
            job.source = requests[key].source;
            job.tenant = requests[key].tenant;
            job.config = requests[key].config;
            int64_t t0 = NowNs();
            auto ticket = service.Submit(std::move(job));
            submit_ns += NowNs() - t0;
            if (!ticket.ok()) return;
            engine::JobOutcome out = service.Wait(ticket.value());
            rec->active_ms = out.elapsed_ms;
            if (out.result.has_value()) {
              Accept(&book, key, *out.result, budget, rec);
            }
          });
      cache = CacheDelta(c0, CacheNow());
      Account(svc, "daemon-scan in-process vs wire", rep);
      double active = 0;
      double latency_sum = 0;
      for (const JobRecord& j : svc.jobs) {
        active += j.active_ms;
        latency_sum += Ms(j.end_ns - j.start_ns);
      }
      const double jobs = static_cast<double>(svc.jobs.size());
      rep->Set("engine.submit_us", Ms(submit_ns.load()) * 1e3 / jobs);
      rep->Set("engine.rounds",
               static_cast<double>(service.Stats().rounds));
      rep->Set("engine.rounds_per_job",
               static_cast<double>(service.Stats().rounds) / jobs);
      rep->Set("engine.active_frac", active / latency_sum);
      rep->Set("engine.worker_util",
               active / (Ms(svc.end_ns - svc.start_ns) * workers));
      rep->Set("server.overhead_ms",
               Median(latency) - Median(LatenciesMs(svc)));
    }

    // Every distinct job once more, directly with the decorators: the
    // per-job set-up the daemon pays (compile, analysis, deploy) and the
    // evm/fuzzer split, checked against the wire results.
    SetupLayerMetrics(d2, Median(gen_ms), o.trace_out, rep);
    Tracer tracer;
    std::vector<lang::ContractArtifact> arts = CompileAll(d2, rep);
    uint64_t a0 = CurrentAllocStats().allocs;
    LoopRun direct = ClosedLoop(
        1, 0, arts.size(), arts.size(),
        [&](int, uint64_t key, JobRecord* rec) {
          Accept(&book, key,
                 RunTraced(arts[key], requests[key].config, key, &tracer),
                 budget, rec);
        });
    uint64_t allocs = CurrentAllocStats().allocs - a0;
    Account(direct, "daemon-scan direct traced vs wire", rep);
    TracedLayerMetrics(tracer,
                       tracer.executions ? static_cast<double>(allocs) /
                                               tracer.executions
                                         : 0.0,
                       cache, rep);
    WriteSpans(o.trace_out, "direct", tracer.spans);
  }

  rep->Expect(rss > 0, "daemon-scan: could not read mufuzzd peak RSS");
  rep->Set("peak_rss_mb", rss);
  conns.clear();
  daemon.reset();
  rep->Set("failed_frac",
           rep->attempted ? static_cast<double>(rep->failed) / rep->attempted
                          : 0);
  *digest = book.Digest();
  return 0;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      o->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      o->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--daemon") {
      o->daemon = v;
    } else if (flag == "--trace-out") {
      o->trace_out = v;
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: %s --workload campaign-large|eval-matrix|daemon-scan"
                 " --seed N --seconds S --trace 0|1 --daemon PATH"
                 " [--trace-out FILE] [--smoke]\n",
                 argv[0]);
    return 2;
  }
  if (!o.trace_out.empty()) {
    if (std::FILE* f = std::fopen(o.trace_out.c_str(), "w")) std::fclose(f);
  }
  Report rep;
  uint64_t digest = 0;
  int rc = 2;
  if (o.workload == "campaign-large") {
    rc = CampaignLarge(o, &rep, &digest);
  } else if (o.workload == "eval-matrix") {
    rc = EvalMatrix(o, &rep, &digest);
  } else if (o.workload == "daemon-scan") {
    rc = DaemonScan(o, &rep, &digest);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 o.workload.c_str());
  }
  if (rc != 0) return rc;
  if (o.workload != "daemon-scan") {
    rep.Set("failed_frac", rep.attempted ? static_cast<double>(rep.failed) /
                                               rep.attempted
                                         : 0);
  }
  rep.Print(o, digest);
  return rep.correct() ? 0 : 1;
}
