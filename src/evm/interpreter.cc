#include "evm/interpreter.h"

#include <algorithm>
#include <cstring>

#include "common/keccak.h"
#include "evm/code_cache.h"

namespace mufuzz::evm {

U256 Keccak256Memo::Hash(BytesView input) {
  if (input.size() > kMaxInput) {
    return U256::FromBytesBE32(Keccak256(input).data());
  }
  // Fold the input's 8-byte words (zero-padded tail) multiplicatively; the
  // top bits mix every word and pick the entry.
  uint64_t h = input.size();
  for (size_t off = 0; off < input.size(); off += 8) {
    uint64_t word = 0;
    std::memcpy(&word, input.data() + off,
                std::min<size_t>(8, input.size() - off));
    h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
  }
  Entry& e = entries_[h >> (64 - kIndexBits)];
  if (e.len == input.size() &&
      (input.empty() ||
       std::memcmp(e.input, input.data(), input.size()) == 0)) {
    return e.digest;
  }
  auto digest = Keccak256(input);
  e.len = static_cast<uint8_t>(input.size());
  if (!input.empty()) std::memcpy(e.input, input.data(), input.size());
  e.digest = U256::FromBytesBE32(digest.data());
  return e.digest;
}

const char* OutcomeToString(Outcome outcome) {
  switch (outcome) {
    case Outcome::kSuccess:
      return "success";
    case Outcome::kRevert:
      return "revert";
    case Outcome::kOutOfGas:
      return "out_of_gas";
    case Outcome::kInvalidOp:
      return "invalid_op";
    case Outcome::kStackError:
      return "stack_error";
    case Outcome::kBadJump:
      return "bad_jump";
    case Outcome::kMemoryError:
      return "memory_error";
    case Outcome::kDepthExceeded:
      return "depth_exceeded";
    case Outcome::kStepLimit:
      return "step_limit";
    case Outcome::kStaticViolation:
      return "static_violation";
    case Outcome::kBalanceError:
      return "balance_error";
  }
  return "unknown";
}

Interpreter::Interpreter(WorldState* state, Host* host, BlockContext block,
                         EvmConfig config)
    : state_(state),
      host_(host),
      block_(block),
      config_(config),
      cache_(config.code_cache != nullptr ? config.code_cache
                                          : CodeCache::Global()) {}

ExecResult Interpreter::ExecuteTransaction(const MessageCall& call) {
  cmp_records_.clear();
  next_call_id_ = 0;
  steps_ = 0;
  instructions_ = 0;

  size_t snapshot = state_->Snapshot();
  // Value moves from the external sender to the callee before code runs.
  if (!call.value.IsZero() &&
      !state_->Transfer(call.caller, call.to, call.value)) {
    state_->RevertTo(snapshot);
    return {Outcome::kBalanceError, {}, 0};
  }
  ExecResult result = RunFrame(call);
  if (!result.Success()) {
    state_->RevertTo(snapshot);
  } else {
    state_->Commit(snapshot);
  }
  if (observer_ != nullptr) observer_->OnInstructions(instructions_);
  return result;
}

bool Interpreter::Reenter(const Address& target, const Address& sender,
                          const U256& value, const Bytes& data, uint64_t gas) {
  if (reenter_depth_ >= 2) return false;
  const Account* acct = state_->Find(target);
  if (acct == nullptr || !acct->HasCode()) return false;
  ++reenter_depth_;
  MessageCall call;
  call.to = target;
  call.code_address = target;
  call.caller = sender;
  call.origin = sender;
  call.value = value;
  call.data = data;
  call.gas = gas;
  call.depth = 1;  // callbacks count as nested frames
  size_t snapshot = state_->Snapshot();
  ExecResult result = RunFrame(call);
  if (!result.Success()) {
    state_->RevertTo(snapshot);
  } else {
    state_->Commit(snapshot);
  }
  --reenter_depth_;
  return result.Success();
}

ExecResult Interpreter::RunFrame(const MessageCall& call) {
  if (call.depth > config_.max_call_depth) {
    return {Outcome::kDepthExceeded, {}, 0};
  }
  const Account* code_acct = state_->Find(call.code_address);
  if (code_acct == nullptr || !code_acct->HasCode()) {
    // Calling an empty account succeeds vacuously (value already moved).
    return {Outcome::kSuccess, {}, 0};
  }
  // Resolve the shared decode, memoized on the account so repeat frames
  // skip even the cache's keccak probe. Holding the shared_ptr (not the
  // account pointer) keeps the code alive while the accounts map rehashes —
  // this replaces the per-frame deep copy of the code vector.
  if (code_acct->decoded == nullptr) {
    code_acct->decoded = cache_->GetOrDecode(code_acct->code);
  }
  std::shared_ptr<const DecodedCode> decoded = code_acct->decoded;
  if (frame_loop_ == nullptr) return RunFrameDecoded(call, *decoded);
  return frame_loop_(*this, call, *decoded);
}

}  // namespace mufuzz::evm
