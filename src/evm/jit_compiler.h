#ifndef MUFUZZ_EVM_JIT_COMPILER_H_
#define MUFUZZ_EVM_JIT_COMPILER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "evm/jit_arena.h"

// The baseline JIT targets x86-64 SysV and needs W^X-capable anonymous
// mappings; everything else (and -DMUFUZZ_PORTABLE_DISPATCH builds, which
// CI exercises as the fallback proof) degrades to the decoded interpreter.
#if defined(__x86_64__) && (defined(__unix__) || defined(__APPLE__)) && \
    !defined(MUFUZZ_PORTABLE_DISPATCH)
#define MUFUZZ_JIT_SUPPORTED 1
#endif

namespace mufuzz::evm {

struct DecodedCode;

/// The native state one compiled frame hands to the emitted code, at fixed
/// offsets the emitter bakes in (static_asserted in jit_compiler.cc). The
/// full JitFrame (memory, taint map, interpreter back-pointers) lives behind
/// this prefix on the C++ side; emitted code touches only these fields and
/// reaches everything else through the per-IrOp helper calls.
struct JitFrameRaw {
  void* stack = nullptr;        ///< Word[kMaxDepth], uninitialized above sp
  uint64_t sp = 0;              ///< operand-stack height
  uint64_t gas = 0;             ///< remaining gas of this frame
  uint64_t* steps_ptr = nullptr;  ///< &Interpreter::steps_ (shared, nested)
  uint64_t max_steps = 0;
  void* observer = nullptr;     ///< ExecObserver*, null = no instrumentation
  uint64_t jump_ip = 0;         ///< dynamic-jump target (insn index)
  uint8_t checked = 1;          ///< per-op stack checks on (kBlockCheck sets)
  uint64_t caller_guard = 0;    ///< nonzero once a caller-tainted JUMPI ran
  int32_t depth = 0;            ///< MessageCall::depth (observer events)
};

/// One contract's native code: the sealed arena plus the per-instruction
/// entry table dynamic jumps dispatch through. Immutable once built; shared
/// across sessions via the owning DecodedCode's JitState.
struct CompiledCode {
  using EntryFn = void (*)(JitFrameRaw*);

  EntryFn entry = nullptr;
  JitArena arena;
  /// Native address of every IR instruction. Pre-sized before emission so
  /// its data pointer can be embedded in the code; indexed by the insn index
  /// a JUMP/JUMPI resolves through DecodedCode::pc_to_insn.
  std::vector<const void*> insn_addr;
  size_t code_size = 0;  ///< emitted bytes (<= arena.size())
};

/// True when this build can emit and run native code (x86-64, POSIX, and
/// not a portable-dispatch build). When false every kJit frame runs the
/// decoded interpreter.
bool JitAvailable();

/// Compiles a decode into native subroutine-threaded code. Returns nullptr
/// on bailout (unsupported build, oversized code, mmap/mprotect refusal) —
/// the caller records the bailout and pins the decoded interpreter.
std::shared_ptr<const CompiledCode> JitCompile(const DecodedCode& decoded);

}  // namespace mufuzz::evm

#endif  // MUFUZZ_EVM_JIT_COMPILER_H_
