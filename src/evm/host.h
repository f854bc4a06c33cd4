#ifndef MUFUZZ_EVM_HOST_H_
#define MUFUZZ_EVM_HOST_H_

#include <cstdint>

#include "common/address.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/u256.h"
#include "evm/opcodes.h"

namespace mufuzz::evm {

/// Block-level execution environment (TIMESTAMP, NUMBER, ...).
struct BlockContext {
  uint64_t number = 1;
  uint64_t timestamp = 1700000000;
  uint64_t gas_limit = 30000000;
  Address coinbase = Address::FromUint(0xc01bba5eULL);
  U256 difficulty = U256(2500000);
};

/// A CALL-family request that targets an address with no code in the world
/// state — i.e. an externally owned account or a simulated attacker.
struct ExternalCallRequest {
  Address caller;  ///< the contract issuing the call (the potential victim)
  Address target;
  U256 value;
  Bytes data;
  uint64_t gas = 0;
  Op kind = Op::kCall;
  int depth = 0;
};

struct ExternalCallOutcome {
  bool success = true;
  Bytes return_data;
};

/// Lets a Host call back into contracts while servicing an external call —
/// the mechanism behind the reentrancy probe.
class ReentryHandle {
 public:
  virtual ~ReentryHandle() = default;
  /// Executes a message call against `target` (a contract in the world
  /// state) with `sender` as msg.sender. Returns true if it succeeded.
  virtual bool Reenter(const Address& target, const Address& sender,
                       const U256& value, const Bytes& data,
                       uint64_t gas) = 0;
};

/// Models everything outside the contracts under test: externally owned
/// accounts receiving transfers, adversarial callees, failing callees.
///
/// Sequence lifecycle hooks: an execution backend arms the host before each
/// sequence (OnSequenceStart) and each transaction (OnTransactionStart)
/// instead of the fuzzer poking host-specific setters. A host whose behavior
/// after OnSequenceStart(seed) is a pure function of (construction
/// parameters, seed, the call stream) is *sequence-pure*: a sequence's
/// outcome never depends on which sequences ran before it, which is what
/// makes the campaign's plan-ahead child schedule reproducible.
///
/// Sequence-purity also licenses prefix resume and suffix replay
/// (SessionBackend): a transaction that never reached OnExternalCall is a
/// pure function of the pre-state and its request, so a backend may copy
/// its cached outcome instead of executing it. The backend still makes every lifecycle call a
/// full run makes — OnSequenceStart(seed), then OnTransactionStart(data)
/// for each skipped transaction — so the host's state when the first
/// executed transaction starts is the same. A host must therefore keep all
/// state that affects execution behind these hooks and OnExternalCall.
class Host {
 public:
  virtual ~Host() = default;
  virtual ExternalCallOutcome OnExternalCall(const ExternalCallRequest& req,
                                             ReentryHandle* reentry) = 0;

  /// Called by the backend before the first transaction of a sequence.
  /// `seed` is the sequence's environment seed; stochastic hosts must
  /// derive all per-sequence randomness from it (not from a stream carried
  /// across sequences) or batch results become submission-order dependent.
  virtual void OnSequenceStart(uint64_t /*seed*/) {}

  /// Called by the backend before each transaction of a sequence, with the
  /// transaction's calldata (adversarial hosts re-enter with it).
  virtual void OnTransactionStart(const Bytes& /*calldata*/) {}
};

/// Benign host: every external call succeeds and returns no data.
class AcceptingHost : public Host {
 public:
  ExternalCallOutcome OnExternalCall(const ExternalCallRequest&,
                                     ReentryHandle*) override {
    return {true, {}};
  }
};

/// Fails external calls with a fixed probability — exercises the unhandled-
/// exception (UE) oracle paths the paper's D2 contracts rely on.
class FailureInjectingHost : public Host {
 public:
  FailureInjectingHost(uint64_t seed, double failure_probability)
      : rng_(seed), failure_probability_(failure_probability) {}

  ExternalCallOutcome OnExternalCall(const ExternalCallRequest&,
                                     ReentryHandle*) override {
    if (rng_.Chance(failure_probability_)) return {false, {}};
    return {true, {}};
  }

 private:
  Rng rng_;
  double failure_probability_;
};

/// The adversarial host of §IV-D's reentrancy oracle: when a contract makes a
/// value-bearing call with more than the 2300-gas stipend (i.e. a
/// `call.value` rather than a `transfer`), the "attacker" on the other end
/// calls straight back into the calling function. A vulnerable contract will
/// reach the same call site again before its state update; a safe one will
/// bounce off its guards. Calls carrying <= 2300 gas are accepted silently,
/// matching the real-world safety of transfer()/send().
///
/// The fuzzer sets the callback calldata to the currently fuzzed function
/// before each transaction.
class ReentrancyProbeHost : public Host {
 public:
  /// `max_reentries` bounds callback recursion per transaction.
  explicit ReentrancyProbeHost(int max_reentries = 2)
      : max_reentries_(max_reentries) {}

  /// Calldata used for the callback (normally the current tx's calldata).
  void SetReentryCalldata(Bytes data) { reentry_calldata_ = std::move(data); }
  /// Resets the per-transaction reentry budget.
  void ResetBudget() { reentries_used_ = 0; }
  /// Number of callbacks performed since the last ResetBudget().
  int reentries_used() const { return reentries_used_; }

  ExternalCallOutcome OnExternalCall(const ExternalCallRequest& req,
                                     ReentryHandle* reentry) override {
    constexpr uint64_t kStipend = 2300;
    if (reentry != nullptr && req.gas > kStipend && !req.value.IsZero() &&
        reentries_used_ < max_reentries_ && !reentry_calldata_.empty()) {
      ++reentries_used_;
      // The attacker re-invokes the caller with the same calldata.
      reentry->Reenter(req.caller, req.target, U256::Zero(),
                       reentry_calldata_, req.gas - 2000);
    }
    return {true, {}};
  }

 private:
  int max_reentries_;
  int reentries_used_ = 0;
  Bytes reentry_calldata_;
};

}  // namespace mufuzz::evm

#endif  // MUFUZZ_EVM_HOST_H_
