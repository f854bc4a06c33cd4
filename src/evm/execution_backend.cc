#include "evm/execution_backend.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace mufuzz::evm {

SessionBackend::SessionBackend(Host* host, BlockContext block,
                               EvmConfig config) {
  Bind(host, block, config);
}

void SessionBackend::Bind(Host* host, BlockContext block, EvmConfig config) {
  host_ = host;
  session_.emplace(host, block, config);
  session_->interpreter().set_observer(&trace_);
  trace_.Clear();
  deployed_.reset();
  DropRecords();
}

void SessionBackend::Unbind() {
  session_.reset();
  host_ = nullptr;
  trace_.Clear();
  deployed_.reset();
  Trim();
}

void SessionBackend::Trim() {
  records_ = {};
  records_len_ = 0;
}

void SessionBackend::CheckBound() const {
  if (!session_.has_value()) {
    std::fprintf(stderr,
                 "fatal: SessionBackend used before Bind() / after Unbind()\n");
    std::abort();
  }
}

Result<Address> SessionBackend::DeployContract(const Bytes& runtime_code,
                                               const Bytes& ctor_code,
                                               const Bytes& ctor_args,
                                               const Address& deployer,
                                               const U256& value) {
  CheckBound();
  DropRecords();
  return session_->Deploy(runtime_code, ctor_code, ctor_args, deployer,
                          value);
}

void SessionBackend::FundAccount(const Address& addr, const U256& balance) {
  CheckBound();
  DropRecords();
  session_->FundAccount(addr, balance);
}

void SessionBackend::MarkDeployed() {
  CheckBound();
  DropRecords();
  deployed_ = session_->Snapshot();
}

void SessionBackend::Rewind() {
  CheckBound();
  DropRecords();
  session_->Restore(deployed_.value_or(ChainSession::SessionSnapshot{}));
}

SequenceOutcome SessionBackend::ExecuteSequence(const SequencePlan& plan) {
  SequenceOutcome out;
  ExecuteSequenceInto(plan, &out);
  return out;
}

void SessionBackend::ExecuteSequenceInto(const SequencePlan& plan,
                                         SequenceOutcome* out) {
  CheckBound();
  const size_t n = plan.txs.size();
  size_t shared = 0;
  while (shared < records_len_ && shared < n && records_[shared].host_free &&
         records_[shared].request == plan.txs[shared].request) {
    ++shared;
  }
  // Restoring a mark discards every later one; records past `shared` keep
  // describing the last plan until this one overwrites them.
  session_->Restore(shared == 0
                        ? deployed_.value_or(ChainSession::SessionSnapshot{})
                        : records_[shared - 1].mark);
  reused_txs_ += shared;
  const size_t last_len = records_len_;
  // The session state equals the last plan's state before position i.
  bool aligned = true;
  // Whether this plan is still being recorded: false from the first
  // transaction that reached the host and changed state, which no later
  // plan can realign past.
  bool recording = deployed_.has_value();
  records_len_ = 0;
  // Whether a record before position i is neutral. A later plan can only be
  // aligned past the first position it executes, so without a neutral
  // record before it a write set would never be replayed.
  bool neutral_before = false;

  host_->OnSequenceStart(plan.host_seed);
  out->ResetForReuse(n);
  trace_.Clear();
  for (size_t i = 0; i < n; ++i) {
    const PreparedTx& ptx = plan.txs[i];
    host_->OnTransactionStart(ptx.request.data);
    TxOutcome& txo = out->txs[i];
    if (i < shared) {
      txo = records_[i].outcome;
      txo.tag = ptx.tag;
    } else if (aligned && i < last_len && records_[i].replayable &&
               records_[i].request == ptx.request) {
      TxRecord& rec = records_[i];
      session_->Replay(rec.writes);
      rec.mark = session_->Snapshot();
      txo = rec.outcome;
      txo.tag = ptx.tag;
      ++reused_txs_;
    } else {
      WorldState& state = session_->state();
      const size_t journal_before = state.journal_size();
      const uint64_t host_calls = session_->interpreter().host_calls();
      ExecResult result = session_->Apply(ptx.request);
      txo.tag = ptx.tag;
      txo.success = result.Success();
      txo.outcome = result.outcome;
      txo.gas_used = result.gas_used;
      session_->interpreter().TakeCmpRecords(&txo.cmps);
      // The recorded events land in the outcome slot; the slot's warm
      // (cleared) buffers come back to record the next transaction. O(1),
      // no copies.
      trace_.Swap(&txo.trace);
      const bool neutral = state.journal_size() == journal_before;
      const bool host_free =
          session_->interpreter().host_calls() == host_calls;
      aligned = aligned && neutral && i < last_len && records_[i].neutral;
      recording = recording && (host_free || neutral);
      if (recording) {
        if (records_.size() == i) records_.emplace_back();
        TxRecord& rec = records_[i];
        rec.request = ptx.request;
        rec.neutral = neutral;
        rec.host_free = host_free;
        rec.replayable = host_free && neutral_before &&
                         state.CollectWrites(journal_before, &rec.writes);
        if (host_free) {
          rec.outcome = txo;
          rec.mark = session_->Snapshot();
        }
      }
    }
    if (recording) {
      records_len_ = i + 1;
      neutral_before = neutral_before || records_[i].neutral;
    }
    out->instructions += txo.trace.instruction_count();
  }
}

CodeCacheStats SessionBackend::code_cache_stats() const {
  if (!session_.has_value()) return {};
  return session_->interpreter().code_cache()->stats();
}

const WorldState& SessionBackend::state() const {
  CheckBound();
  return session_->state();
}

std::unique_ptr<SessionBackend> SessionPool::Acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_.empty()) {
    ++created_;
    return std::make_unique<SessionBackend>();
  }
  std::unique_ptr<SessionBackend> backend = std::move(free_.back());
  free_.pop_back();
  return backend;
}

void SessionPool::Release(std::unique_ptr<SessionBackend> backend) {
  if (backend == nullptr) return;
  // The host the session was bound to belongs to the last campaign and may
  // already be gone; never keep a reachable reference to it in the pool.
  backend->Unbind();
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(backend));
}

size_t SessionPool::created() const {
  std::lock_guard<std::mutex> lock(mu_);
  return created_;
}

size_t SessionPool::pooled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_.size();
}

}  // namespace mufuzz::evm
