#ifndef MUFUZZ_LANG_PARSER_H_
#define MUFUZZ_LANG_PARSER_H_

#include <memory>

#include "common/status.h"
#include "lang/ast.h"
#include "lang/token.h"

namespace mufuzz::lang {

/// Deepest MiniSol nesting the parser accepts. No path from a function body
/// or a state-variable initializer down to an AST leaf passes through more
/// nodes than this, and no more nested constructs than this (statements and
/// blocks, parentheses, index and call arguments, unary operators, mapping
/// types, encodePacked lists) are open at once. Deeper input is a
/// ParseError, so the parser, sema, codegen and the AST destructors never
/// recurse deeper than this bound, whatever the source size.
inline constexpr int kMaxNestingDepth = 256;

/// Parses a single MiniSol contract from source text.
Result<std::unique_ptr<ContractDecl>> ParseContract(std::string_view source);

}  // namespace mufuzz::lang

#endif  // MUFUZZ_LANG_PARSER_H_
