#include "evm/executor.h"

namespace mufuzz::evm {

ChainSession::ChainSession(Host* host, BlockContext block, EvmConfig config)
    : interpreter_(&state_, host, block, config), block_(block) {}

Result<Address> ChainSession::Deploy(const Bytes& runtime_code,
                                     const Bytes& ctor_code,
                                     const Bytes& ctor_args,
                                     const Address& deployer,
                                     const U256& value) {
  // Deterministic deployment addresses: 0xC0000000...N.
  Address addr = Address::FromUint(0xc0000000ULL + next_contract_nonce_++);
  if (state_.Find(addr) != nullptr && state_.Find(addr)->HasCode()) {
    return Status::Internal("deployment address collision");
  }

  if (!ctor_code.empty()) {
    state_.SetCode(addr, ctor_code);
    MessageCall call;
    call.to = addr;
    call.code_address = addr;
    call.caller = deployer;
    call.origin = deployer;
    call.value = value;
    call.data = ctor_args;
    call.gas = 8000000;
    ExecResult result = interpreter_.ExecuteTransaction(call);
    if (!result.Success()) {
      state_.SetCode(addr, {});
      return Status::ExecutionError(
          std::string("constructor failed: ") + OutcomeToString(result.outcome));
    }
  } else if (!value.IsZero()) {
    if (!state_.Transfer(deployer, addr, value)) {
      return Status::ExecutionError("deployer lacks funds");
    }
  }
  state_.SetCode(addr, runtime_code);
  return addr;
}

ExecResult ChainSession::Apply(const TransactionRequest& tx) {
  MessageCall& call = apply_call_;
  call.to = tx.to;
  call.code_address = tx.to;
  call.caller = tx.sender;
  call.origin = tx.sender;
  call.value = tx.value;
  call.data = tx.data;
  call.gas = tx.gas;

  interpreter_.set_block(block_);
  ExecResult result = interpreter_.ExecuteTransaction(call);
  AdvanceBlock();
  return result;
}

void ChainSession::Replay(const std::vector<StateWrite>& writes) {
  state_.ApplyWrites(writes);
  AdvanceBlock();
}

void ChainSession::FundAccount(const Address& addr, const U256& balance) {
  state_.SetBalance(addr, balance);
}

ChainSession::SessionSnapshot ChainSession::Snapshot() {
  return {state_.Snapshot(), block_};
}

void ChainSession::Restore(const SessionSnapshot& snap) {
  state_.RestoreKeep(snap.state_snapshot);
  block_ = snap.block;
}

}  // namespace mufuzz::evm
