// Shared machinery of the repository benchmark: the traced decorators that
// time the evm and fuzzer boundaries from outside, per-job spans, the
// closed-loop runner, the result book behind every correctness check, and
// the mufuzzd child process.
#ifndef MUFUZZ_PERFBENCH_HARNESS_H_
#define MUFUZZ_PERFBENCH_HARNESS_H_

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "evm/execution_backend.h"
#include "fuzzer/campaign.h"
#include "fuzzer/seed_scheduler.h"
#include "server/protocol.h"

namespace perfbench {

using namespace mufuzz;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Median of `v` (0 when empty).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile `q` in [0, 1] of `v` (0 when empty).
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

/// Peak resident set (VmHWM) of process `pid` ("self" for this one), MiB.
inline double PeakRssMb(const std::string& pid = "self") {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ------------------------------------------------------------- Host probe --

/// The host's speed. A shared host moves the speed of every core by up to a
/// half for minutes at a time, longer than one run, so no estimator inside a
/// run removes it. The probe is a fixed piece of work that belongs to the
/// benchmark, not to the program: a byte-code dispatch loop over a 32 KiB
/// table, shaped like the interpreter the workloads spend their time in.
/// Timed next to the program's work, it says how fast the host ran then, and
/// --trace 0 timings are reported as they would read on a host where the
/// probe takes kProbeNominalNs (see NominalScale). A change to the program
/// moves them as it moves wall-clock time; the host's load moves both the
/// program and the probe and largely cancels.
constexpr double kProbeNominalNs = 5e6;

/// Runs the probe once on this thread and returns its wall time.
inline double ProbeNs() {
  static const std::vector<uint8_t> code = [] {
    std::vector<uint8_t> c(4096);
    uint64_t x = 88172645463325252ULL;
    for (uint8_t& op : c) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      op = static_cast<uint8_t>(x & 7);
    }
    return c;
  }();
  constexpr size_t kTable = 4096;
  std::vector<uint64_t> table(kTable);
  const int64_t t0 = NowNs();
  uint64_t a = 1, b = 2, acc = 0;
  for (int rep = 0; rep < 100; ++rep) {
    for (size_t pc = 0; pc < code.size(); ++pc) {
      switch (code[pc]) {
        case 0: a += b; break;
        case 1: b ^= a * 0x9E3779B97F4A7C15ULL; break;
        case 2: acc += table[(a * 0x9E3779B97F4A7C15ULL >> 20) % kTable]; break;
        case 3: table[(b * 0xD1B54A32D192ED03ULL >> 20) % kTable] = acc + a; break;
        case 4: a = a & 1 ? a >> 1 : a * 3 + 1; break;
        case 5: b = (b << 7) | (b >> 57); break;
        case 6: acc ^= b + pc; break;
        default: a -= acc; break;
      }
    }
  }
  const int64_t t1 = NowNs();
  static std::atomic<uint64_t> sink{0};
  sink.fetch_xor(a + b + acc, std::memory_order_relaxed);
  return static_cast<double>(t1 - t0);
}

/// Runs the probe on `threads` threads at once, as a workload with that
/// many busy threads loads the host: three times on each thread, keeping
/// the thread's fastest (a thread that started late or was interrupted
/// reads slow), and returns the median over the threads.
inline double ProbeNs(int threads) {
  std::vector<double> ns(static_cast<size_t>(std::max(1, threads)));
  auto fastest = [&ns](size_t i) {
    ns[i] = std::min({ProbeNs(), ProbeNs(), ProbeNs()});
  };
  std::vector<std::thread> pool;
  for (size_t i = 1; i < ns.size(); ++i) pool.emplace_back(fastest, i);
  fastest(0);
  for (std::thread& t : pool) t.join();
  return Median(ns);
}

/// Takes a time measured while the probe took `probe_ns` to the nominal
/// host speed: multiply a time by it, divide a rate by it.
inline double NominalScale(double probe_ns) {
  return kProbeNominalNs / probe_ns;
}

// ------------------------------------------------------------------ Spans --

/// Phases a job passes through; spans of one job share its id.
enum class Phase : uint8_t {
  kCompile,
  kAnalyze,
  kConstruct,
  kRun,
  kFinalize,
  kSubmit,
  kWait,
};

inline const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kCompile: return "compile";
    case Phase::kAnalyze: return "analyze";
    case Phase::kConstruct: return "construct";
    case Phase::kRun: return "run";
    case Phase::kFinalize: return "finalize";
    case Phase::kSubmit: return "submit";
    case Phase::kWait: return "wait";
  }
  return "?";
}

struct Span {
  uint64_t job = 0;
  Phase phase = Phase::kRun;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-execution boundary counters of the evm and fuzzer layers. They are
/// summed rather than spanned: one span per execution would cost more than
/// the work it times.
struct LayerCounters {
  int64_t deploy_ns = 0;
  int64_t exec_ns = 0;
  uint64_t sequences = 0;
  uint64_t txs = 0;
  uint64_t instructions = 0;
  int64_t sched_ns = 0;
  uint64_t selects = 0;
  uint64_t adds = 0;

  void Merge(const LayerCounters& o) {
    deploy_ns += o.deploy_ns;
    exec_ns += o.exec_ns;
    sequences += o.sequences;
    txs += o.txs;
    instructions += o.instructions;
    sched_ns += o.sched_ns;
    selects += o.selects;
    adds += o.adds;
  }
};

/// What one thread of a traced pass recorded. Merged after the pass, so
/// recording never synchronizes.
struct Tracer {
  LayerCounters counters;
  std::vector<Span> spans;
  // Sums over the results of the traced campaigns.
  uint64_t executions = 0;
  uint64_t masks = 0;
  uint64_t admitted = 0;
  uint64_t evicted = 0;

  void Record(uint64_t job, Phase phase, int64_t start_ns, int64_t end_ns) {
    spans.push_back({job, phase, start_ns, end_ns});
  }
  int64_t Total(Phase phase) const {
    int64_t ns = 0;
    for (const Span& s : spans) {
      if (s.phase == phase) ns += s.end_ns - s.start_ns;
    }
    return ns;
  }
  void AddResult(const fuzzer::CampaignResult& r) {
    executions += r.executions;
    masks += r.masks_computed;
    admitted += r.queue_stats.admitted;
    evicted += r.queue_stats.evicted;
  }
  void Merge(const Tracer& o) {
    counters.Merge(o.counters);
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    executions += o.executions;
    masks += o.masks;
    admitted += o.admitted;
    evicted += o.evicted;
  }
};

inline Tracer MergeAll(const std::vector<Tracer>& tracers) {
  Tracer all;
  for (const Tracer& t : tracers) all.Merge(t);
  return all;
}

/// Times the evm boundary the campaign drives. SessionBackend routes
/// ExecuteSequence through ExecuteSequenceInto, so only the outermost call
/// of a nest is timed and counted.
class TimedBackend : public evm::SessionBackend {
 public:
  explicit TimedBackend(LayerCounters* counters) : c_(counters) {}

  Result<Address> DeployContract(const Bytes& runtime_code,
                                 const Bytes& ctor_code,
                                 const Bytes& ctor_args,
                                 const Address& deployer,
                                 const U256& value) override {
    int64_t t0 = NowNs();
    auto r = SessionBackend::DeployContract(runtime_code, ctor_code, ctor_args,
                                            deployer, value);
    c_->deploy_ns += NowNs() - t0;
    return r;
  }

  evm::SequenceOutcome ExecuteSequence(
      const evm::SequencePlan& plan) override {
    if (depth_ > 0) return SessionBackend::ExecuteSequence(plan);
    ++depth_;
    int64_t t0 = NowNs();
    evm::SequenceOutcome out = SessionBackend::ExecuteSequence(plan);
    Count(plan, out, t0);
    --depth_;
    return out;
  }

  void ExecuteSequenceInto(const evm::SequencePlan& plan,
                           evm::SequenceOutcome* out) override {
    if (depth_ > 0) return SessionBackend::ExecuteSequenceInto(plan, out);
    ++depth_;
    int64_t t0 = NowNs();
    SessionBackend::ExecuteSequenceInto(plan, out);
    Count(plan, *out, t0);
    --depth_;
  }

 private:
  void Count(const evm::SequencePlan& plan, const evm::SequenceOutcome& out,
             int64_t t0) {
    c_->exec_ns += NowNs() - t0;
    c_->sequences += 1;
    c_->txs += plan.txs.size();
    c_->instructions += out.instructions;
  }

  LayerCounters* c_;
  int depth_ = 0;
};

/// Times the fuzzer's seed-queue boundary. Select routes through
/// SelectExcluding, so picks are counted there and only the outermost call
/// is timed.
class TimedScheduler : public fuzzer::SeedScheduler {
 public:
  TimedScheduler(bool distance_feedback, LayerCounters* counters)
      : SeedScheduler(distance_feedback), c_(counters) {}

  fuzzer::SeedId Select(Rng* rng) override {
    return Outermost([&] { return SeedScheduler::Select(rng); });
  }
  fuzzer::SeedId SelectExcluding(
      Rng* rng, std::span<const fuzzer::SeedId> exclude) override {
    c_->selects += 1;
    return Outermost(
        [&] { return SeedScheduler::SelectExcluding(rng, exclude); });
  }
  bool Add(fuzzer::FuzzSeed seed) override {
    c_->adds += 1;
    return Outermost([&] { return SeedScheduler::Add(std::move(seed)); });
  }

 private:
  template <typename Fn>
  auto Outermost(Fn&& fn) -> decltype(fn()) {
    if (depth_ > 0) return fn();
    ++depth_;
    int64_t t0 = NowNs();
    auto r = fn();
    c_->sched_ns += NowNs() - t0;
    --depth_;
    return r;
  }

  LayerCounters* c_;
  int depth_ = 0;
};

/// One campaign through the public constructor with the timed decorators,
/// spanned per phase. Identical to RunCampaign: Run() is SeedCorpus +
/// StepRound(max_executions) + Finalize.
inline fuzzer::CampaignResult RunTraced(const lang::ContractArtifact& artifact,
                                        const fuzzer::CampaignConfig& config,
                                        uint64_t job, Tracer* tracer) {
  int64_t t0 = NowNs();
  TimedBackend backend(&tracer->counters);
  TimedScheduler scheduler(config.strategy.distance_feedback,
                           &tracer->counters);
  fuzzer::Campaign campaign(&artifact, config, &backend, &scheduler);
  int64_t t1 = NowNs();
  campaign.SeedCorpus();
  campaign.StepRound(static_cast<uint64_t>(config.max_executions));
  int64_t t2 = NowNs();
  fuzzer::CampaignResult result = campaign.Finalize();
  int64_t t3 = NowNs();
  tracer->Record(job, Phase::kConstruct, t0, t1);
  tracer->Record(job, Phase::kRun, t1, t2);
  tracer->Record(job, Phase::kFinalize, t2, t3);
  tracer->AddResult(result);
  return result;
}

// ------------------------------------------------------------ Result book --

/// The first result seen for every distinct job, against which every later
/// result for that job (another pass, the traced pass, the wire, a direct
/// re-run) must compare operator==. Thread-safe.
class ResultBook {
 public:
  /// Records `result` for `key`, or compares it against the recorded one.
  /// Returns false on a mismatch.
  bool Check(uint64_t key, const fuzzer::CampaignResult& result) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = results_.try_emplace(key, result);
    return inserted || it->second == result;
  }

  const std::map<uint64_t, fuzzer::CampaignResult>& results() const {
    return results_;
  }

  /// FNV-1a over the wire encoding of every recorded result in key order;
  /// the encoding carries exactly the operator== fields.
  uint64_t Digest() const {
    server::WireWriter w;
    for (const auto& [key, result] : results_) {
      w.U64(key);
      server::EncodeCampaignResult(result, &w);
    }
    return Fnv1a64(w.bytes());
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, fuzzer::CampaignResult> results_;
};

// ------------------------------------------------------- Closed-loop runner --

struct JobRecord {
  uint64_t index = 0;
  int client = 0;
  int64_t start_ns = 0;  ///< `run` may move it past a probe of its own
  int64_t end_ns = 0;
  bool ok = false;
  bool mismatch = false;  ///< result differs from the book's first one
  uint64_t executions = 0;
  double active_ms = 0;  ///< service-reported active time, when known
  double probe_ns = 0;   ///< host probe just before the job, when taken
};

struct LoopRun {
  std::vector<JobRecord> jobs;  ///< in index order
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Runs `clients` closed-loop clients: each sends its next job only after
/// its previous one completed. Job indices are issued densely from 0 until
/// `seconds` have passed and at least `min_jobs` were issued; issuing also
/// stops only at a multiple of `granularity`, so whole passes over a job
/// list complete. `run(client, index, &record)` performs one job and fills
/// `ok` and `executions`. Indices start at `first`, so that consecutive
/// loops can continue one job stream.
inline LoopRun ClosedLoop(
    int clients, double seconds, uint64_t min_jobs, uint64_t granularity,
    const std::function<void(int, uint64_t, JobRecord*)>& run,
    uint64_t first = 0) {
  std::atomic<uint64_t> next{0};
  std::mutex mu;
  LoopRun out;
  out.start_ns = NowNs();
  const int64_t deadline =
      out.start_ns + static_cast<int64_t>(seconds * 1e9);
  auto body = [&](int client) {
    std::vector<JobRecord> mine;
    while (true) {
      uint64_t idx = next.load();
      bool past = NowNs() >= deadline;
      if (past && idx >= min_jobs && idx % granularity == 0) break;
      if (!next.compare_exchange_weak(idx, idx + 1)) continue;
      JobRecord r;
      r.index = first + idx;
      r.client = client;
      r.start_ns = NowNs();
      run(client, r.index, &r);
      r.end_ns = NowNs();
      mine.push_back(r);
    }
    std::lock_guard<std::mutex> lock(mu);
    out.jobs.insert(out.jobs.end(), mine.begin(), mine.end());
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(body, c);
  body(0);
  for (std::thread& t : threads) t.join();
  out.end_ns = NowNs();
  std::sort(out.jobs.begin(), out.jobs.end(),
            [](const JobRecord& a, const JobRecord& b) {
              return a.index < b.index;
            });
  return out;
}

// --------------------------------------------------------- mufuzzd process --

/// A mufuzzd child on an ephemeral loopback port. The destructor stops it
/// (SIGTERM) and reaps it; the child also gets SIGTERM if this process dies.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `path` with `workers` workers and waits for its readiness line.
  bool Start(const std::string& path, int workers) {
    int fds[2];
    if (pipe(fds) != 0) return false;
    pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) {
      close(fds[0]);
      close(fds[1]);
      return false;
    }
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (getppid() != parent) _exit(127);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      std::string w = std::to_string(workers);
      execl(path.c_str(), path.c_str(), "--host", "127.0.0.1", "--port", "0",
            "--workers", w.c_str(), "--metrics-interval-ms", "0",
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(fds[1]);
    out_fd_ = fds[0];
    // Readiness line: "mufuzzd listening on port N (W workers)".
    std::string line;
    const int64_t deadline = NowNs() + 30'000'000'000LL;
    while (line.find('\n') == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      int left_ms = static_cast<int>((deadline - NowNs()) / 1'000'000);
      if (left_ms <= 0 || poll(&p, 1, left_ms) <= 0) return false;
      char buf[256];
      ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      line.append(buf, static_cast<size_t>(n));
    }
    return std::sscanf(line.c_str(), "mufuzzd listening on port %d",
                       &port_) == 1;
  }

  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      close(out_fd_);
      out_fd_ = -1;
    }
  }

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

}  // namespace perfbench

#endif  // MUFUZZ_PERFBENCH_HARNESS_H_
