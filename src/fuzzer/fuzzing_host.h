#ifndef MUFUZZ_FUZZER_FUZZING_HOST_H_
#define MUFUZZ_FUZZER_FUZZING_HOST_H_

#include "common/rng.h"
#include "evm/host.h"

namespace mufuzz::fuzzer {

/// The adversarial environment the campaign fuzzes against, combining the
/// reentrancy probe (re-enter on value calls with gas above the stipend)
/// with failure injection (external calls fail with a configurable
/// probability, exercising unhandled-exception paths).
///
/// The host is *sequence-pure*: OnSequenceStart reseeds the failure-
/// injection stream from the sequence's environment seed, so a sequence's
/// outcome is a function of (construction parameters, sequence seed, call
/// stream) — never of which sequences ran before it.
class FuzzingHost : public evm::Host {
 public:
  FuzzingHost(uint64_t seed, double failure_probability, int max_reentries)
      : rng_(seed),
        failure_probability_(failure_probability),
        max_reentries_(max_reentries) {}

  /// Arms the host for one sequence: reseeds the failure-injection stream.
  void OnSequenceStart(uint64_t seed) override {
    rng_.Reseed(seed);
    reentries_used_ = 0;
    reentry_calldata_.clear();
  }

  /// Arms the host for one transaction: resets the reentry budget and sets
  /// the calldata the simulated attacker will call back with.
  void OnTransactionStart(const Bytes& calldata) override {
    reentries_used_ = 0;
    reentry_calldata_ = calldata;
  }

  evm::ExternalCallOutcome OnExternalCall(
      const evm::ExternalCallRequest& req,
      evm::ReentryHandle* reentry) override {
    constexpr uint64_t kStipend = 2300;
    // Reentrancy probe: only calls that forward real gas can be hijacked.
    if (reentry != nullptr && req.gas > kStipend && !req.value.IsZero() &&
        reentries_used_ < max_reentries_ && !reentry_calldata_.empty()) {
      ++reentries_used_;
      reentry->Reenter(req.caller, req.target, U256::Zero(),
                       reentry_calldata_, req.gas - 2000);
    }
    // Failure injection (after the probe: a malicious callee may both
    // re-enter and then report failure).
    if (rng_.Chance(failure_probability_)) {
      return {false, {}};
    }
    return {true, {}};
  }

  int reentries_used() const { return reentries_used_; }

 private:
  Rng rng_;
  double failure_probability_;
  int max_reentries_;
  int reentries_used_ = 0;
  Bytes reentry_calldata_;
};

}  // namespace mufuzz::fuzzer

#endif  // MUFUZZ_FUZZER_FUZZING_HOST_H_
