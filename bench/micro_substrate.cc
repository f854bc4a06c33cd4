// Micro-benchmarks for the substrate: 256-bit arithmetic, keccak, the EVM
// interpreter, the compiler, and full sequence execution. These support the
// paper's §IV-C claim that "the pre-fuzz phase yields little impact on the
// overall runtime overhead" (see BM_PreFuzzObservation vs BM_SequenceRun).

#include <benchmark/benchmark.h>

#include "analysis/prefix_inference.h"
#include "bench_util.h"
#include "byte_switch_oracle.h"
#include "common/keccak.h"
#include "common/rng.h"
#include "common/u256.h"
#include "copy_state_backstop.h"
#include "corpus/builtin.h"
#include "corpus/generator.h"
#include "evm/code_cache.h"
#include "evm/execution_backend.h"
#include "evm/executor.h"
#include "fuzzer/abi_codec.h"
#include "fuzzer/campaign.h"
#include "fuzzer/energy.h"
#include "fuzzer/fuzzing_host.h"
#include "lang/compiler.h"
#include "selector_dispatch_contract.h"

namespace {

using namespace mufuzz;  // NOLINT: bench-local convenience

void BM_U256Add(benchmark::State& state) {
  Rng rng(1);
  U256 a(rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64());
  U256 b(rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = a + b);
  }
}
BENCHMARK(BM_U256Add);

void BM_U256Mul(benchmark::State& state) {
  Rng rng(2);
  U256 a(rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64());
  U256 b(rng.NextU64(), rng.NextU64(), 0, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_U256Mul);

void BM_U256Div(benchmark::State& state) {
  Rng rng(3);
  U256 a(rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64());
  U256 b(rng.NextU64(), rng.NextU64(), 0, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a / b);
  }
}
BENCHMARK(BM_U256Div);

void BM_Keccak256(benchmark::State& state) {
  Bytes data(state.range(0), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Keccak256(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Keccak256)->Arg(32)->Arg(136)->Arg(1024);

void BM_CompileCrowdsale(benchmark::State& state) {
  const std::string& source = corpus::CrowdsaleExample().source;
  for (auto _ : state) {
    auto artifact = lang::CompileContract(source);
    benchmark::DoNotOptimize(artifact);
  }
}
BENCHMARK(BM_CompileCrowdsale);

/// One full transaction against the deployed Crowdsale (dispatch + body).
void BM_TransactionExecution(benchmark::State& state) {
  auto artifact = lang::CompileContract(corpus::CrowdsaleExample().source);
  evm::AcceptingHost host;
  evm::ChainSession chain(&host);
  Address deployer = Address::FromUint(0xd0);
  chain.FundAccount(deployer, U256::PowerOfTen(24));
  auto addr = chain.Deploy(artifact->runtime_code, artifact->ctor_code, {},
                           deployer, U256(0));
  // invest(5).
  evm::TransactionRequest tx;
  tx.to = addr.value();
  tx.sender = deployer;
  Bytes data;
  AppendU32BE(&data, artifact->abi.functions[0].selector);
  U256(5).AppendBytesBE(&data);
  tx.data = data;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.Apply(tx));
  }
}
BENCHMARK(BM_TransactionExecution);

/// Decoding a real contract into the linear IR (leader marking, block
/// stack-effect aggregation, fusion, jump pre-resolution) — the one-time
/// cost the code cache amortizes across every execution.
void BM_DecodeContract(benchmark::State& state) {
  auto artifact = lang::CompileContract(corpus::CrowdsaleExample().source);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evm::DecodeCode(artifact->runtime_code));
  }
  state.SetBytesProcessed(state.iterations() *
                          artifact->runtime_code.size());
}
BENCHMARK(BM_DecodeContract);

/// An arithmetic/jump loop heavy in the fusable shapes (PUSH;PUSH;ADD,
/// DUP;SLOAD, PUSH;JUMPI), isolating raw dispatch cost from session
/// plumbing. Arg 0 = byte-switch oracle, Arg 1 = decoded IR dispatch.
void BM_DispatchLoop(benchmark::State& state) {
  constexpr uint32_t kIterations = 2000;
  Bytes code;
  code.push_back(0x61);  // PUSH2 counter
  code.push_back(static_cast<uint8_t>(kIterations >> 8));
  code.push_back(static_cast<uint8_t>(kIterations & 0xff));
  const uint32_t loop_pc = static_cast<uint32_t>(code.size());
  code.push_back(0x5b);        // JUMPDEST
  code.push_back(0x60);        // PUSH1 1
  code.push_back(0x01);
  code.push_back(0x90);        // SWAP1
  code.push_back(0x03);        // SUB        counter -= 1
  code.push_back(0x60);        // PUSH1 3
  code.push_back(0x03);
  code.push_back(0x60);        // PUSH1 4
  code.push_back(0x04);
  code.push_back(0x01);        // ADD        (fusable triple)
  code.push_back(0x50);        // POP
  code.push_back(0x80);        // DUP1
  code.push_back(0x54);        // SLOAD      (fusable pair)
  code.push_back(0x50);        // POP
  code.push_back(0x80);        // DUP1
  code.push_back(0x61);        // PUSH2 loop
  code.push_back(static_cast<uint8_t>(loop_pc >> 8));
  code.push_back(static_cast<uint8_t>(loop_pc & 0xff));
  code.push_back(0x57);        // JUMPI      (fusable pair)
  code.push_back(0x00);        // STOP

  evm::WorldState world;
  evm::AcceptingHost host;
  const Address contract = Address::FromUint(0xc0de);
  world.SetCode(contract, code);
  evm::CodeCache cache;
  evm::EvmConfig config;
  config.code_cache = &cache;
  evm::Interpreter interp(&world, &host, evm::BlockContext(), config);
  if (state.range(0) == 0) evm::ByteSwitchOracle::Install(&interp);
  evm::MessageCall call;
  call.to = contract;
  call.code_address = contract;
  call.caller = Address::FromUint(0xab01);
  call.origin = call.caller;
  call.gas = 8000000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(interp.ExecuteTransaction(call));
  }
  state.SetItemsProcessed(state.iterations() * kIterations);
}
BENCHMARK(BM_DispatchLoop)->Arg(0)->Arg(1);

/// One call into a compiled 14-function contract (the size of a D1-large
/// one) with its last selector, so the linear dispatcher runs all 14 cases
/// before a one-line body: the fused DUP1;PUSH4;EQ;PUSH2;JUMPI cases and the
/// fused guards. Arg 0 = byte-switch oracle, Arg 1 = decoded IR dispatch.
void BM_SelectorDispatch(benchmark::State& state) {
  auto artifact =
      lang::CompileContract(evm::SelectorDispatchSource(/*functions=*/14));
  evm::CodeCache cache;
  evm::EvmConfig config;
  config.code_cache = &cache;
  evm::AcceptingHost host;
  evm::ChainSession chain(&host, evm::BlockContext(), config);
  if (state.range(0) == 0) {
    evm::ByteSwitchOracle::Install(&chain.interpreter());
  }
  Address deployer = Address::FromUint(0xd0);
  chain.FundAccount(deployer, U256::PowerOfTen(24));
  auto addr = chain.Deploy(artifact->runtime_code, artifact->ctor_code, {},
                           deployer, U256(0));
  evm::TransactionRequest tx;
  tx.to = addr.value();
  tx.sender = deployer;
  AppendU32BE(&tx.data, artifact->abi.functions.back().selector);
  U256(5).AppendBytesBE(&tx.data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.Apply(tx));
  }
}
BENCHMARK(BM_SelectorDispatch)->Arg(0)->Arg(1);

/// Builds the plans of the ExecuteSequenceInto benches against the deployed
/// Crowdsale example.
struct CrowdsalePlans {
  const fuzzer::AbiCodec* codec;
  Address contract;
  Address sender;

  /// `invest(amount)` carrying `amount` wei: host-free, and it writes state.
  evm::PreparedTx Invest(uint64_t amount, int tag) const {
    fuzzer::Tx tx;
    tx.fn_index = 0;  // invest(uint256)
    tx.args = {U256(amount)};
    evm::PreparedTx prepared;
    prepared.tag = tag;
    prepared.request.to = contract;
    prepared.request.sender = sender;
    prepared.request.value = U256(amount);
    prepared.request.data = codec->EncodeCalldata(tx);
    return prepared;
  }

  /// A call with an unknown selector: the dispatcher reverts, so it leaves
  /// the state unchanged.
  evm::PreparedTx Reverting(uint32_t selector, int tag) const {
    evm::PreparedTx prepared;
    prepared.tag = tag;
    prepared.request.to = contract;
    prepared.request.sender = sender;
    AppendU32BE(&prepared.request.data, selector);
    return prepared;
  }
};

/// The execution layer's hot path: 16 sequence plans (`make_plan(plans, k)`
/// builds plan k) through ExecuteSequenceInto on the in-process
/// SessionBackend, each into its own outcome slot that is reused across
/// iterations, as the campaign's child slots are. With `expect_reuse` the
/// run fails unless the backend restored or replayed some transaction.
template <typename MakePlan>
void TimeSequencePlans(benchmark::State& state, MakePlan make_plan,
                       bool expect_reuse) {
  auto artifact = lang::CompileContract(corpus::CrowdsaleExample().source);
  fuzzer::FuzzingHost host(/*seed=*/1, /*failure_probability=*/0.25,
                           /*max_reentries=*/2);
  evm::SessionBackend backend(&host);
  Address deployer = Address::FromUint(0xd0);
  backend.FundAccount(deployer, U256::PowerOfTen(24));
  auto addr = backend.DeployContract(artifact->runtime_code,
                                     artifact->ctor_code, {}, deployer,
                                     U256(0));
  backend.MarkDeployed();

  fuzzer::AbiCodec codec(&artifact->abi, {deployer});
  const CrowdsalePlans builder{&codec, addr.value(), deployer};
  std::vector<evm::SequencePlan> plans;
  for (uint64_t k = 0; k < 16; ++k) plans.push_back(make_plan(builder, k));
  std::vector<evm::SequenceOutcome> outcomes(plans.size());
  for (auto _ : state) {
    for (size_t i = 0; i < plans.size(); ++i) {
      backend.ExecuteSequenceInto(plans[i], &outcomes[i]);
    }
    benchmark::DoNotOptimize(outcomes.data());
    benchmark::ClobberMemory();
    if (expect_reuse && backend.reused_txs() == 0) {
      state.SkipWithError("no transaction was restored or replayed");
      break;
    }
  }
  const int64_t executed =
      state.iterations() * static_cast<int64_t>(plans.size());
  state.SetItemsProcessed(executed);
  // Restored plus replayed transactions per plan.
  state.counters["reused_per_plan"] =
      executed > 0 ? static_cast<double>(backend.reused_txs()) /
                         static_cast<double>(executed)
                   : 0.0;
}

/// Plans that differ at their first transaction, three state-writing
/// `invest` calls each: neither prefix resume nor suffix replay applies, so
/// this leg measures execution plus record keeping.
void BM_ExecuteSequenceInto(benchmark::State& state) {
  TimeSequencePlans(
      state,
      [](const CrowdsalePlans& builder, uint64_t k) {
        evm::SequencePlan plan;
        plan.host_seed = 0x9000 + k;
        for (uint64_t t = 0; t < 3; ++t) {
          plan.txs.push_back(builder.Invest(5 + k + t, static_cast<int>(t)));
        }
        return plan;
      },
      /*expect_reuse=*/false);
}
BENCHMARK(BM_ExecuteSequenceInto)->Unit(benchmark::kMicrosecond);

/// Plans shaped like a campaign's input mutations: a shared host-free
/// `invest` prefix, then a per-plan reverting call (the mutated focus
/// transaction), then the same two `invest` calls. Each plan restores the
/// prefix and replays the tail from the previous plan's recorded writes, so
/// this leg times the reuse paths.
void BM_ExecuteSequenceIntoReuse(benchmark::State& state) {
  TimeSequencePlans(
      state,
      [](const CrowdsalePlans& builder, uint64_t k) {
        evm::SequencePlan plan;
        plan.host_seed = 0x9000 + k;
        plan.txs.push_back(builder.Invest(5, 0));
        plan.txs.push_back(
            builder.Reverting(0xdead0000u + static_cast<uint32_t>(k), 1));
        plan.txs.push_back(builder.Invest(7, 2));
        plan.txs.push_back(builder.Invest(9, 3));
        return plan;
      },
      /*expect_reuse=*/true);
}
BENCHMARK(BM_ExecuteSequenceIntoReuse)->Unit(benchmark::kMicrosecond);

/// A complete fuzzing campaign (the unit of every table/figure run).
void BM_CampaignHundredExecs(benchmark::State& state) {
  auto artifact = lang::CompileContract(corpus::CrowdsaleExample().source);
  for (auto _ : state) {
    fuzzer::CampaignConfig config;
    config.seed = 1;
    config.max_executions = 100;
    benchmark::DoNotOptimize(fuzzer::RunCampaign(*artifact, config));
  }
}
BENCHMARK(BM_CampaignHundredExecs);

/// Speculative multi-parent expansion: Arg = fan-out K (parents expanded per
/// round, one child per parent in flight). K=1 is the serial parent chain —
/// the baseline for what the wider schedules cost. Results depend on K (it
/// is part of the reproducibility key).
void BM_SpeculativeCampaign(benchmark::State& state) {
  auto artifact = lang::CompileContract(corpus::CrowdsaleExample().source);
  for (auto _ : state) {
    fuzzer::CampaignConfig config;
    config.seed = 1;
    config.max_executions = 100;
    config.fanout = static_cast<int>(state.range(0));
    benchmark::DoNotOptimize(fuzzer::RunCampaign(*artifact, config));
  }
}
BENCHMARK(BM_SpeculativeCampaign)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// A batch of campaigns through a FuzzService at varying worker counts —
/// the path every table/figure bench rides on. Arg = workers.
/// Multi-threaded, so it reports wall time: main-thread CPU time would
/// leave out the workers.
void BM_ParallelBatchCampaigns(benchmark::State& state) {
  std::vector<engine::FuzzJob> jobs;
  for (int i = 0; i < 8; ++i) {
    engine::FuzzJob job;
    auto entry = corpus::GenerateContract(
        corpus::GeneratorParams::Small(), 1000 + 101 * i);
    job.name = entry.name;
    job.source = entry.source;
    job.config.seed = 1 + i;
    job.config.max_executions = 100;
    jobs.push_back(std::move(job));
  }
  engine::ServiceOptions options;
  options.workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::RunJobs(jobs, options));
  }
}
BENCHMARK(BM_ParallelBatchCampaigns)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

/// Per-sequence rewind cost: populate a state with Arg0 accounts, mark it,
/// then repeatedly touch Arg1 slots and rewind. The claim under test: the
/// journaled WorldState scales with slots touched, not with state size
/// (compare rows with equal Arg1 across Arg0 = 10 / 1k / 100k), while the
/// retired copy-based semantics (kept in tests/evm/copy_state_backstop.h as
/// the differential oracle) are linear in state size. One templated body so
/// both sides of the before/after comparison run the identical workload.
template <class StateT>
void BM_SnapshotRewind(benchmark::State& state) {
  const int64_t accounts = state.range(0);
  const int64_t touched = state.range(1);
  StateT world;
  for (int64_t i = 0; i < accounts; ++i) {
    Address addr = Address::FromUint(0x10000 + i);
    world.SetBalance(addr, U256(1));
    world.SetStorage(addr, U256(0), U256(i + 1));
  }
  size_t snap = world.Snapshot();
  Address target = Address::FromUint(0x10000);
  for (auto _ : state) {
    for (int64_t k = 0; k < touched; ++k) {
      world.SetStorage(target, U256(k + 1), U256(k + 7));
    }
    world.RestoreKeep(snap);
  }
  state.SetItemsProcessed(state.iterations() * touched);
}
BENCHMARK_TEMPLATE(BM_SnapshotRewind, evm::WorldState)
    ->ArgPair(10, 16)
    ->ArgPair(1000, 16)
    ->ArgPair(100000, 16)
    ->ArgPair(10, 256)
    ->ArgPair(1000, 256)
    ->ArgPair(100000, 256);
BENCHMARK_TEMPLATE(BM_SnapshotRewind, evm::CopyStateBackstop)
    ->ArgPair(10, 16)
    ->ArgPair(1000, 16)
    ->ArgPair(100000, 16);

/// Cost of the Algorithm-3 machinery alone: prefix inference construction
/// plus weighting every branch of the contract — the "pre-fuzz" overhead.
void BM_PreFuzzObservation(benchmark::State& state) {
  auto artifact = lang::CompileContract(corpus::CrowdsaleExample().source);
  for (auto _ : state) {
    fuzzer::EnergyScheduler scheduler(&artifact.value(), true);
    for (const auto& entry : artifact->branch_map) {
      scheduler.ObserveBranch(entry.jumpi_pc);
    }
    benchmark::DoNotOptimize(scheduler.weighted_branches());
  }
}
BENCHMARK(BM_PreFuzzObservation);

/// CFG + vulnerable-location analysis from bytecode.
void BM_PrefixInferenceBuild(benchmark::State& state) {
  auto artifact = lang::CompileContract(corpus::CrowdsaleExample().source);
  for (auto _ : state) {
    analysis::PrefixInference inference(artifact->runtime_code);
    benchmark::DoNotOptimize(inference.vulnerable_locations().size());
  }
}
BENCHMARK(BM_PrefixInferenceBuild);

}  // namespace

BENCHMARK_MAIN();
