#ifndef MUFUZZ_EVM_EXECUTOR_H_
#define MUFUZZ_EVM_EXECUTOR_H_

#include <cstdint>
#include <memory>

#include "common/address.h"
#include "common/bytes.h"
#include "common/status.h"
#include "evm/host.h"
#include "evm/interpreter.h"
#include "evm/world_state.h"

namespace mufuzz::evm {

/// One transaction as the fuzzer submits it.
struct TransactionRequest {
  Address to;
  Address sender;
  U256 value;
  Bytes data;
  uint64_t gas = 8000000;

  friend bool operator==(const TransactionRequest& a,
                         const TransactionRequest& b) {
    return a.gas == b.gas && a.to == b.to && a.sender == b.sender &&
           a.value == b.value && a.data == b.data;
  }
};

/// A lightweight chain session: a world state plus an interpreter, with
/// contract deployment and transaction application. This is the fixture the
/// fuzzing campaign drives — it replaces the paper's private Ethereum node.
class ChainSession {
 public:
  ChainSession(Host* host, BlockContext block = BlockContext(),
               EvmConfig config = EvmConfig());

  /// Deploys a contract: installs the constructor code, executes it with
  /// `ctor_args` as calldata (writing initial storage), then installs the
  /// runtime code. Returns the new contract address.
  Result<Address> Deploy(const Bytes& runtime_code, const Bytes& ctor_code,
                         const Bytes& ctor_args, const Address& deployer,
                         const U256& value);

  /// Applies one transaction and advances the block (number +1, timestamp
  /// +13s), so block-state reads vary across a sequence.
  ExecResult Apply(const TransactionRequest& tx);

  /// Stands in for an Apply whose effect on the world state is known:
  /// applies `writes` (journaled) and advances the block as Apply does.
  void Replay(const std::vector<StateWrite>& writes);

  /// Gives `addr` a balance (fuzzer senders get deep pockets).
  void FundAccount(const Address& addr, const U256& balance);

  WorldState& state() { return state_; }
  const WorldState& state() const { return state_; }
  Interpreter& interpreter() { return interpreter_; }
  const Interpreter& interpreter() const { return interpreter_; }

  /// Block context the next Apply() executes under.
  const BlockContext& block() const { return block_; }

  /// Snapshot/restore of the full session (world state + block context),
  /// used to rewind to the post-deployment state between fuzz runs.
  /// Snapshot() is O(1) (a journal mark); Restore() unwinds the world
  /// state's write journal, so its cost scales with the slots the run
  /// touched, not with total state size.
  struct SessionSnapshot {
    size_t state_snapshot;
    BlockContext block;
  };
  SessionSnapshot Snapshot();
  void Restore(const SessionSnapshot& snap);

 private:
  /// The block step between two transactions of a sequence.
  void AdvanceBlock() {
    block_.number += 1;
    block_.timestamp += 13;
  }

  WorldState state_;
  Interpreter interpreter_;
  BlockContext block_;
  uint64_t next_contract_nonce_ = 1;
  /// Reused MessageCall for Apply(): copy-assigning the calldata into the
  /// warm buffer keeps the per-transaction path allocation-free (the
  /// interpreter only reads the call for the duration of the frame).
  MessageCall apply_call_;
};

}  // namespace mufuzz::evm

#endif  // MUFUZZ_EVM_EXECUTOR_H_
