#ifndef MUFUZZ_TESTS_EVM_SELECTOR_DISPATCH_CONTRACT_H_
#define MUFUZZ_TESTS_EVM_SELECTOR_DISPATCH_CONTRACT_H_

// A MiniSol contract whose selector dispatcher has one case per function,
// like the generated D1-large contracts (14 functions). A call to the last
// function runs every case of the linear dispatcher before its body.

#include <string>

namespace mufuzz::evm {

/// `functions` one-line functions; every third one is payable, so the
/// others carry the non-payable CALLVALUE guard.
inline std::string SelectorDispatchSource(int functions) {
  std::string source = "contract Dispatch {\n  uint256 total;\n";
  for (int i = 0; i < functions; ++i) {
    source += "  function f" + std::to_string(i) + "(uint256 a) public";
    if (i % 3 == 0) source += " payable";
    source += " { total += a + " + std::to_string(i) + "; }\n";
  }
  source += "}\n";
  return source;
}

}  // namespace mufuzz::evm

#endif  // MUFUZZ_TESTS_EVM_SELECTOR_DISPATCH_CONTRACT_H_
