#ifndef MUFUZZ_EVM_EXECUTION_BACKEND_H_
#define MUFUZZ_EVM_EXECUTION_BACKEND_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "evm/code_cache.h"
#include "evm/executor.h"
#include "evm/trace.h"

namespace mufuzz::evm {

/// One transaction of a planned sequence. `tag` is an opaque caller label
/// carried through to the matching TxOutcome (the fuzzer stores the
/// transaction's position in the un-encoded sequence, so feedback indexes
/// stay correct when unencodable entries were skipped at planning time).
struct PreparedTx {
  TransactionRequest request;
  int tag = 0;
};

/// A fully encoded, self-contained unit of execution work: every transaction
/// of one sequence plus the per-sequence environment seed the backend passes
/// to Host::OnSequenceStart. Plans carry no pointers into fuzzer state, so
/// they stay valid while the planner moves on and execute in any order.
struct SequencePlan {
  uint64_t host_seed = 0;
  std::vector<PreparedTx> txs;
};

/// What one transaction of a sequence produced. A self-contained value: the
/// full event trace and the comparison records BranchEvent::cmp_id indexes
/// into are copied out of the interpreter, so outcomes survive the backend
/// moving on to other work (unlike the retired trace()-accessor contract,
/// which exposed a mutable accumulator valid only until the next Execute).
struct TxOutcome {
  int tag = 0;
  bool success = false;
  Outcome outcome = Outcome::kSuccess;
  uint64_t gas_used = 0;
  TraceRecorder trace;
  std::vector<CmpRecord> cmps;

  /// One oversized sequence must not pin its peak buffers in the recycle
  /// pools forever; anything past this per-vector capacity is released.
  static constexpr size_t kMaxRetainedEvents = 1 << 14;

  /// Clears payload but keeps (bounded) heap capacity so a recycled outcome
  /// records the next transaction without reallocating.
  void ResetForReuse() {
    tag = 0;
    success = false;
    outcome = Outcome::kSuccess;
    gas_used = 0;
    trace.Clear();
    trace.ShrinkIfOversized(kMaxRetainedEvents);
    cmps.clear();
    if (cmps.capacity() > kMaxRetainedEvents) cmps.shrink_to_fit();
  }
};

// Outcome slots are relocated by move through the recycle pools; a copying
// relocation would deep-copy every trace.
static_assert(std::is_nothrow_move_constructible_v<TxOutcome>);
static_assert(std::is_nothrow_move_assignable_v<TxOutcome>);

/// Everything one executed SequencePlan produced, in transaction order.
struct SequenceOutcome {
  std::vector<TxOutcome> txs;
  /// Instructions summed over all transactions.
  uint64_t instructions = 0;
  /// Warm TxOutcome slots parked when a shorter sequence reuses this
  /// outcome; ResetForReuse pulls from here before allocating fresh slots,
  /// so varying sequence lengths don't defeat recycling.
  std::vector<TxOutcome> spare_txs;

  /// Re-shapes the outcome for `tx_count` transactions, recycling every
  /// transaction slot's trace/cmp capacity.
  void ResetForReuse(size_t tx_count) {
    while (txs.size() > tx_count) {
      spare_txs.push_back(std::move(txs.back()));
      txs.pop_back();
    }
    while (txs.size() < tx_count) {
      if (!spare_txs.empty()) {
        txs.push_back(std::move(spare_txs.back()));
        spare_txs.pop_back();
      } else {
        txs.emplace_back();
      }
    }
    for (TxOutcome& t : txs) t.ResetForReuse();
    instructions = 0;
  }
};

/// The execution substrate a fuzzing campaign drives: deploy once, mark the
/// deployed state, then execute arbitrarily many sequence plans, each as if
/// from a fresh rewind of the mark. Pulling this behind an interface keeps
/// the fuzzer layer ignorant of how state is hosted and lets worker pools
/// recycle sessions between jobs.
///
/// Execution is plan-in / outcome-out and synchronous: callers hand over
/// self-contained SequencePlans and receive self-contained SequenceOutcomes.
/// Every plan's outcome equals the outcome of running it alone from the
/// MarkDeployed point with the host re-armed via OnSequenceStart, so it is
/// independent of the other plans in its batch and of batch boundaries.
/// Parallelism lives one layer up: whole campaigns run concurrently on the
/// FuzzService workers, each over its own backend.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Rebinds the backend to `host` and discards all session state. A backend
  /// must be bound before any other call; rebinding starts a fresh
  /// deploy-once/rewind-many cycle (the pool-reuse path).
  virtual void Bind(Host* host, BlockContext block = BlockContext(),
                    EvmConfig config = EvmConfig()) = 0;

  /// Drops the session and every reference to the host it was bound to.
  /// Campaigns unbind non-owned backends on destruction (their host dies
  /// with them), and the pool unbinds on Release, so a recycled backend can
  /// never reach a dead host.
  virtual void Unbind() = 0;

  /// Deploys a contract (see ChainSession::Deploy).
  virtual Result<Address> DeployContract(const Bytes& runtime_code,
                                         const Bytes& ctor_code,
                                         const Bytes& ctor_args,
                                         const Address& deployer,
                                         const U256& value) = 0;

  virtual void FundAccount(const Address& addr, const U256& balance) = 0;

  /// Marks the current session state (world state + block context) as the
  /// point every sequence plan starts from. Typically called right after
  /// deployment. O(1) in the in-process backend (a journal mark).
  virtual void MarkDeployed() = 0;

  /// Rewinds to the MarkDeployed() point. Sequence execution rewinds
  /// implicitly per plan; this exists for setup code and tests. Cost is
  /// proportional to the state touched since the mark (journal unwind).
  virtual void Rewind() = 0;

  /// Executes one plan as if from a fresh rewind: arms the host
  /// (OnSequenceStart(plan.host_seed), then OnTransactionStart per tx) and
  /// applies each transaction, collecting a self-contained outcome.
  virtual SequenceOutcome ExecuteSequence(const SequencePlan& plan) = 0;

  /// Executes one plan into a caller-provided outcome slot, reusing its heap
  /// capacity. Semantically identical to `*out = ExecuteSequence(plan)`; the
  /// in-process backend overrides it with a swap-based implementation that
  /// makes the steady-state hot path allocation-free.
  virtual void ExecuteSequenceInto(const SequencePlan& plan,
                                   SequenceOutcome* out) {
    *out = ExecuteSequence(plan);
  }

  /// Executes `plans` in order, each through ExecuteSequenceInto, and
  /// returns their outcomes index-aligned with `plans`. The outcome vector
  /// (and every outcome's trace/cmp capacity) comes from a recycle pool;
  /// hand it back with RecycleOutcomes once consumed and the steady state
  /// stops allocating.
  std::vector<SequenceOutcome> ExecuteSequenceBatch(
      std::span<const SequencePlan> plans);

  /// Returns a consumed batch's outcome buffers to the reuse pool. Pools
  /// are bounded; excess buffers are simply freed.
  void RecycleOutcomes(std::vector<SequenceOutcome> outcomes);

  /// Frees buffers the backend keeps only to run faster (SessionBackend's
  /// retained prefix); outcomes are unaffected. A campaign calls it when it
  /// pauses, so a service holding hundreds of suspended jobs does not pin
  /// one set per job.
  virtual void Trim() {}

  /// Counters of the code cache this backend decodes through (zeros when
  /// unbound). Observability only: the cache is typically the process-wide
  /// one, so hits/misses aggregate across every session sharing it.
  virtual CodeCacheStats code_cache_stats() const { return {}; }

  virtual const WorldState& state() const = 0;

 private:
  /// Draws a warm outcome buffer of exactly `n` elements from the recycle
  /// pool (allocating only what the pool can't supply).
  std::vector<SequenceOutcome> AcquireOutcomeBuffer(size_t n);

  /// Caps every recycle pool; beyond this, buffers are dropped on the floor
  /// (correctness never depends on recycling).
  static constexpr size_t kMaxPooledBuffers = 16;

  std::vector<std::vector<SequenceOutcome>> outcome_pool_;
  std::vector<SequenceOutcome> spare_outcomes_;
};

/// In-process backend: a ChainSession plus a TraceRecorder wired as its
/// observer (both internal — outcomes are copied out per transaction).
/// Bind() reconstructs the session in place, so one SessionBackend can serve
/// many campaigns back to back without reallocation churn at the call sites
/// that hold it.
///
/// Prefix resume: consecutive plans of a campaign mostly share a leading run
/// of transactions (the mutators change one transaction or the tail of a
/// parent sequence). The backend keeps a session mark after each
/// transaction of the last executed plan, together with its request and
/// outcome, for as long as no transaction of that plan has reached
/// Host::OnExternalCall. The next plan restores the mark at the end of the
/// longest such prefix it repeats request for request, copies those
/// outcomes (with its own tags), replays the host's OnSequenceStart and
/// OnTransactionStart calls for them, and executes only the rest. A
/// host-free transaction is a pure function of the pre-state and the
/// request, so this is exactly the outcome of a run from the deployed
/// mark. Bind, Unbind, DeployContract, FundAccount, MarkDeployed and Rewind
/// drop the retained prefix; Unbind and Trim free it. Nothing is retained
/// before MarkDeployed.
class SessionBackend : public ExecutionBackend {
 public:
  /// Constructs an unbound backend (the pool path); call Bind() before use.
  SessionBackend() = default;

  /// Convenience: constructs and binds in one step.
  explicit SessionBackend(Host* host, BlockContext block = BlockContext(),
                          EvmConfig config = EvmConfig());

  void Bind(Host* host, BlockContext block = BlockContext(),
            EvmConfig config = EvmConfig()) override;
  void Unbind() override;

  Result<Address> DeployContract(const Bytes& runtime_code,
                                 const Bytes& ctor_code,
                                 const Bytes& ctor_args,
                                 const Address& deployer,
                                 const U256& value) override;

  void FundAccount(const Address& addr, const U256& balance) override;
  void MarkDeployed() override;
  void Rewind() override;
  SequenceOutcome ExecuteSequence(const SequencePlan& plan) override;
  /// The allocation-free primitive: trace buffers ping-pong between the
  /// internal recorder and the outcome slot via swap, and comparison records
  /// are stolen from the interpreter instead of copied.
  void ExecuteSequenceInto(const SequencePlan& plan,
                           SequenceOutcome* out) override;
  void Trim() override;

  CodeCacheStats code_cache_stats() const override;

  const WorldState& state() const override;

  bool bound() const { return session_.has_value(); }
  /// Transactions whose outcome was copied from the retained prefix instead
  /// of executed, since construction. Observability only: outcomes are the
  /// same either way.
  uint64_t reused_txs() const { return reused_txs_; }
  /// Escape hatch for callers that need the raw session (tests, tooling).
  ChainSession& session() { return *session_; }

 private:
  /// Aborts with a diagnostic when used before Bind() — a contract
  /// violation that must not degrade to silent UB in release builds.
  void CheckBound() const;

  /// Forgets the retained prefix (its marks may no longer describe the
  /// session). Entries keep their buffers for reuse.
  void DropPrefix() { prefix_len_ = 0; }

  /// One transaction of the retained prefix: the request it answered, its
  /// outcome, and the session mark right after it.
  struct PrefixTx {
    TransactionRequest request;
    TxOutcome outcome;
    ChainSession::SessionSnapshot mark{};
  };

  TraceRecorder trace_;
  Host* host_ = nullptr;
  std::optional<ChainSession> session_;
  /// Unset until MarkDeployed(); until then Rewind() restores a zero mark
  /// (a no-op on the world state) and no prefix is retained.
  std::optional<ChainSession::SessionSnapshot> deployed_;
  /// prefix_[0, prefix_len_) is the retained prefix; later entries are
  /// stale but keep their capacity.
  std::vector<PrefixTx> prefix_;
  size_t prefix_len_ = 0;
  uint64_t reused_txs_ = 0;
};

/// Thread-safe pool of reusable SessionBackends. Workers lease a backend for
/// the lifetime of a job (or a whole job stream) and return it afterwards;
/// leased backends come back unbound-in-spirit — the next campaign's Bind()
/// wipes them — so recycling never leaks state across jobs.
class SessionPool {
 public:
  SessionPool() = default;

  /// Leases a backend: a recycled one when available, otherwise fresh.
  std::unique_ptr<SessionBackend> Acquire();

  /// Returns a leased backend to the pool.
  void Release(std::unique_ptr<SessionBackend> backend);

  size_t created() const;
  size_t pooled() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SessionBackend>> free_;
  size_t created_ = 0;
};

}  // namespace mufuzz::evm

#endif  // MUFUZZ_EVM_EXECUTION_BACKEND_H_
