#include "evm/execution_backend.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace mufuzz::evm {

std::vector<SequenceOutcome> ExecutionBackend::ExecuteSequenceBatch(
    std::span<const SequencePlan> plans) {
  std::vector<SequenceOutcome> outcomes = AcquireOutcomeBuffer(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    ExecuteSequenceInto(plans[i], &outcomes[i]);
  }
  return outcomes;
}

std::vector<SequenceOutcome> ExecutionBackend::AcquireOutcomeBuffer(size_t n) {
  std::vector<SequenceOutcome> buf;
  if (!outcome_pool_.empty()) {
    buf = std::move(outcome_pool_.back());
    outcome_pool_.pop_back();
  }
  while (buf.size() > n) {
    if (spare_outcomes_.size() < kMaxPooledBuffers * 4) {
      spare_outcomes_.push_back(std::move(buf.back()));
    }
    buf.pop_back();
  }
  if (buf.capacity() < n) buf.reserve(n);
  while (buf.size() < n) {
    if (!spare_outcomes_.empty()) {
      buf.push_back(std::move(spare_outcomes_.back()));
      spare_outcomes_.pop_back();
    } else {
      buf.emplace_back();
    }
  }
  return buf;
}

void ExecutionBackend::RecycleOutcomes(std::vector<SequenceOutcome> outcomes) {
  if (outcome_pool_.size() >= kMaxPooledBuffers) return;
  outcome_pool_.push_back(std::move(outcomes));
}

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
  DropPrefix();
}

void SessionBackend::Unbind() {
  session_.reset();
  host_ = nullptr;
  trace_.Clear();
  deployed_.reset();
  Trim();
}

void SessionBackend::Trim() {
  prefix_ = {};
  prefix_len_ = 0;
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
  DropPrefix();
  return session_->Deploy(runtime_code, ctor_code, ctor_args, deployer,
                          value);
}

void SessionBackend::FundAccount(const Address& addr, const U256& balance) {
  CheckBound();
  DropPrefix();
  session_->FundAccount(addr, balance);
}

void SessionBackend::MarkDeployed() {
  CheckBound();
  DropPrefix();
  deployed_ = session_->Snapshot();
}

void SessionBackend::Rewind() {
  CheckBound();
  DropPrefix();
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
  while (shared < prefix_len_ && shared < n &&
         prefix_[shared].request == plan.txs[shared].request) {
    ++shared;
  }
  // Restoring a mark discards every later one, so the retained prefix
  // shrinks to what this plan shares.
  if (shared == 0) {
    Rewind();
  } else {
    session_->Restore(prefix_[shared - 1].mark);
    prefix_len_ = shared;
  }
  reused_txs_ += shared;

  host_->OnSequenceStart(plan.host_seed);
  out->ResetForReuse(n);
  trace_.Clear();
  for (size_t i = 0; i < n; ++i) {
    const PreparedTx& ptx = plan.txs[i];
    host_->OnTransactionStart(ptx.request.data);
    TxOutcome& txo = out->txs[i];
    if (i < shared) {
      txo = prefix_[i].outcome;
      txo.tag = ptx.tag;
    } else {
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
      // Retain the transaction while the plan is still host-free.
      if (deployed_.has_value() && prefix_len_ == i &&
          session_->interpreter().host_calls() == host_calls) {
        if (prefix_.size() == i) prefix_.emplace_back();
        PrefixTx& kept = prefix_[i];
        kept.request = ptx.request;
        kept.outcome = txo;
        kept.mark = session_->Snapshot();
        ++prefix_len_;
      }
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
