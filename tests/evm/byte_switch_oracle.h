#ifndef MUFUZZ_TESTS_EVM_BYTE_SWITCH_ORACLE_H_
#define MUFUZZ_TESTS_EVM_BYTE_SWITCH_ORACLE_H_

#include <cstdint>

#include "evm/execution_backend.h"
#include "evm/interpreter.h"

namespace mufuzz::evm {

/// The byte-switch interpreter loop, kept as the reference oracle for the
/// decoded loop: it re-derives jump targets and immediates from the raw code
/// bytes, so the differential suites cross-check two independent decodings.
/// It lives in the `mufuzz_evm_oracle` library, which only the test
/// executables and micro_substrate link; `mufuzz_core` runs the decoded loop
/// alone.
struct ByteSwitchOracle {
  /// Puts `interp` on the byte-switch loop for every frame it runs from now
  /// on, nested CALL frames and host re-entries included.
  static void Install(Interpreter* interp);

  /// Frames the byte-switch loop has run on the calling thread. A test reads
  /// it before and after a run to check the oracle really ran.
  static uint64_t frames_run();

 private:
  static ExecResult RunFrame(Interpreter& interp, const MessageCall& call,
                             const DecodedCode& decoded);
};

/// A SessionBackend whose sessions run on the byte-switch oracle: every
/// Bind installs it on the fresh session, so a re-bound backend stays on it.
class ByteSwitchSessionBackend : public SessionBackend {
 public:
  void Bind(Host* host, BlockContext block = BlockContext(),
            EvmConfig config = EvmConfig()) override;
};

}  // namespace mufuzz::evm

#endif  // MUFUZZ_TESTS_EVM_BYTE_SWITCH_ORACLE_H_
