#ifndef MUFUZZ_EVM_EXECUTION_BACKEND_H_
#define MUFUZZ_EVM_EXECUTION_BACKEND_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
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

  /// One oversized sequence must not pin its peak buffers in a reused
  /// slot forever; anything past this per-vector capacity is released.
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

// Transaction slots are relocated by move when an outcome is re-shaped; a
// copying relocation would deep-copy every trace.
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

/// The execution substrate a fuzzing campaign drives: a ChainSession plus a
/// TraceRecorder wired as its observer (both internal — outcomes are copied
/// out per transaction). Deploy once, mark the deployed state, then execute
/// arbitrarily many sequence plans, each as if from a fresh rewind of the
/// mark. Bind() reconstructs the session in place, so one SessionBackend can
/// serve many campaigns back to back (the SessionPool path).
///
/// Execution is plan-in / outcome-out and synchronous: callers hand over a
/// self-contained SequencePlan and an outcome slot they own. Every plan's
/// outcome equals the outcome of running it alone from the MarkDeployed
/// point with the host re-armed via OnSequenceStart, so it is independent of
/// what ran before it. Parallelism lives one layer up: whole campaigns run
/// concurrently on the FuzzService workers, each over its own backend.
///
/// The class is concrete. Four members stay virtual for the two subclasses
/// that wrap it: Bind (the test oracle's ByteSwitchSessionBackend installs
/// its interpreter loop on every fresh session) and DeployContract,
/// ExecuteSequence and ExecuteSequenceInto (perfbench's timing wrapper).
///
/// Prefix resume and suffix replay: consecutive plans of a campaign mostly
/// differ in one transaction (the mutators change one transaction or the
/// tail of a parent sequence), and most changed transactions revert. The
/// backend keeps one record per position of the last executed plan: the
/// request, whether the transaction left the world state unchanged
/// (`neutral`: its journal length did not move), and, if it never reached
/// Host::OnExternalCall, its outcome and the session mark right after it,
/// plus, if it also installed no code and an earlier record is neutral,
/// its write set (WorldState::CollectWrites).
///  - Prefix: the next plan restores the mark at the end of the longest
///    leading run of host-free records it repeats request for request.
///  - Suffix: from there on the session is *aligned* (its state equals the
///    last plan's state before the same position) until a transaction runs
///    that is not neutral or whose counterpart in the last plan was not.
///    While aligned, a transaction that repeats a record with a write set
///    is not executed: the writes are applied and the block step taken
///    (ChainSession::Replay).
/// Reused outcomes are copied under the new plan's tags, and the host gets
/// every OnSequenceStart and OnTransactionStart call a full run makes. A
/// host-free transaction is a pure function of the pre-state and the
/// request, so this is exactly the outcome of a run from the deployed
/// mark. Recording stops at the first transaction that both reached the
/// host and changed state: no later plan can realign past it. Bind, Unbind,
/// DeployContract, FundAccount, MarkDeployed and Rewind drop the records;
/// Unbind and Trim free them. Nothing is recorded before MarkDeployed.
class SessionBackend {
 public:
  /// Constructs an unbound backend (the pool path); call Bind() before use.
  SessionBackend() = default;

  /// Convenience: constructs and binds in one step.
  explicit SessionBackend(Host* host, BlockContext block = BlockContext(),
                          EvmConfig config = EvmConfig());

  virtual ~SessionBackend() = default;

  /// Rebinds the backend to `host` and discards all session state. A backend
  /// must be bound before any other call; rebinding starts a fresh
  /// deploy-once/rewind-many cycle (the pool-reuse path).
  virtual void Bind(Host* host, BlockContext block = BlockContext(),
                    EvmConfig config = EvmConfig());

  /// Drops the session and every reference to the host it was bound to.
  /// Campaigns unbind non-owned backends on destruction (their host dies
  /// with them), and the pool unbinds on Release, so a recycled backend can
  /// never reach a dead host.
  void Unbind();

  /// Deploys a contract (see ChainSession::Deploy).
  virtual Result<Address> DeployContract(const Bytes& runtime_code,
                                         const Bytes& ctor_code,
                                         const Bytes& ctor_args,
                                         const Address& deployer,
                                         const U256& value);

  void FundAccount(const Address& addr, const U256& balance);

  /// Marks the current session state (world state + block context) as the
  /// point every sequence plan starts from. Typically called right after
  /// deployment. O(1): a journal mark.
  void MarkDeployed();

  /// Rewinds to the MarkDeployed() point. Sequence execution rewinds
  /// implicitly per plan; this exists for setup code and tests. Cost is
  /// proportional to the state touched since the mark (journal unwind).
  void Rewind();

  /// Executes one plan into a fresh outcome. Routes through
  /// ExecuteSequenceInto.
  virtual SequenceOutcome ExecuteSequence(const SequencePlan& plan);

  /// Executes one plan as if from a fresh rewind into a caller-owned outcome
  /// slot: arms the host (OnSequenceStart(plan.host_seed), then
  /// OnTransactionStart per tx) and applies each transaction. The slot's
  /// heap capacity is reused — trace buffers ping-pong between the internal
  /// recorder and the slot via swap, and comparison records are stolen from
  /// the interpreter instead of copied — so a campaign that keeps its slots
  /// executes allocation-free in the steady state.
  virtual void ExecuteSequenceInto(const SequencePlan& plan,
                                   SequenceOutcome* out);

  /// Frees the plan records, a buffer kept only to run faster; outcomes
  /// are unaffected. A campaign calls it when it pauses, so a service
  /// holding hundreds of suspended jobs does not pin one set per job.
  void Trim();

  /// Counters of the code cache this backend decodes through (zeros when
  /// unbound). Observability only: the cache is typically the process-wide
  /// one, so hits/misses aggregate across every session sharing it.
  CodeCacheStats code_cache_stats() const;

  const WorldState& state() const;

  bool bound() const { return session_.has_value(); }
  /// Transactions whose outcome was copied from a plan record instead of
  /// executed (restored prefix and replayed suffix), since construction.
  /// Observability only: outcomes are the same either way.
  uint64_t reused_txs() const { return reused_txs_; }
  /// Escape hatch for callers that need the raw session (tests, tooling).
  ChainSession& session() { return *session_; }

 private:
  /// Aborts with a diagnostic when used before Bind() — a contract
  /// violation that must not degrade to silent UB in release builds.
  void CheckBound() const;

  /// Forgets the plan records (they may no longer describe the session).
  /// Records keep their buffers for reuse.
  void DropRecords() { records_len_ = 0; }

  /// One position of the last executed plan.
  struct TxRecord {
    TransactionRequest request;
    /// The transaction left the journal length unchanged.
    bool neutral = false;
    /// It never reached the host; `outcome` and `mark` are set.
    bool host_free = false;
    /// `writes` is set: host-free, no code installed, and a neutral record
    /// precedes it (no later plan can be aligned here otherwise).
    bool replayable = false;
    TxOutcome outcome;
    std::vector<StateWrite> writes;
    ChainSession::SessionSnapshot mark{};
  };

  TraceRecorder trace_;
  Host* host_ = nullptr;
  std::optional<ChainSession> session_;
  /// Unset until MarkDeployed(); until then Rewind() restores a zero mark
  /// (a no-op on the world state) and nothing is recorded.
  std::optional<ChainSession::SessionSnapshot> deployed_;
  /// records_[0, records_len_) describe the last executed plan; later
  /// entries are stale but keep their capacity.
  std::vector<TxRecord> records_;
  size_t records_len_ = 0;
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
