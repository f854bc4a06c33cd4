#ifndef MUFUZZ_LANG_AST_H_
#define MUFUZZ_LANG_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/u256.h"

namespace mufuzz::lang {

// ---------------------------------------------------------------- Types ----

enum class TypeKind { kUint256, kBool, kAddress, kMapping, kVoid };

/// A MiniSol type. Mappings are one level deep (scalar key, scalar value),
/// which matches the Solidity-0.4 patterns the corpus exercises.
struct Type {
  TypeKind kind = TypeKind::kUint256;
  TypeKind key = TypeKind::kUint256;    ///< mapping key (if kind == kMapping)
  TypeKind value = TypeKind::kUint256;  ///< mapping value

  static Type Uint256() { return {TypeKind::kUint256, {}, {}}; }
  static Type Bool() { return {TypeKind::kBool, {}, {}}; }
  static Type AddressT() { return {TypeKind::kAddress, {}, {}}; }
  static Type Void() { return {TypeKind::kVoid, {}, {}}; }
  static Type Mapping(TypeKind k, TypeKind v) {
    return {TypeKind::kMapping, k, v};
  }

  bool IsScalar() const {
    return kind == TypeKind::kUint256 || kind == TypeKind::kBool ||
           kind == TypeKind::kAddress;
  }
  bool IsNumeric() const { return kind == TypeKind::kUint256; }
  bool operator==(const Type& o) const {
    return kind == o.kind && (kind != TypeKind::kMapping ||
                              (key == o.key && value == o.value));
  }

  /// Canonical ABI spelling ("uint256", "address", "bool").
  std::string AbiName() const;
};

// ---------------------------------------------------------- Expressions ----

enum class ExprKind {
  kNumber,
  kBoolLit,
  kIdent,
  kEnv,        // msg.sender, msg.value, block.timestamp, ...
  kIndex,      // mapping[key]
  kBinary,
  kUnary,
  kBalance,    // <address-expr>.balance
  kKeccak,     // keccak256(...)
  kTransfer,   // <addr>.transfer(v) / <addr>.send(v)
  kLowCall,    // <addr>.call.value(v)()
  kDelegate,   // <addr>.delegatecall(...)
  kCast,       // uint256(x) / address(x)
};

enum class EnvKind {
  kMsgSender,
  kMsgValue,
  kBlockTimestamp,
  kBlockNumber,
  kTxOrigin,
  kThis,      // address(this)
};

enum class BinOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kLt, kGt, kLe, kGe, kEq, kNe,
  kAnd, kOr,
};

enum class UnOp { kNot, kNeg };

/// How an identifier resolved (filled in by Sema).
enum class RefKind { kUnresolved, kStateVar, kLocal, kParam };

struct Expr {
  ExprKind kind;
  int line = 0;
  /// Nodes on the longest path from here down to a leaf, this one included
  /// (set by the parser, which bounds it by kMaxNestingDepth).
  int height = 1;
  Type type;  ///< set by Sema

  explicit Expr(ExprKind k) : kind(k) {}
  virtual ~Expr() = default;
};

using ExprPtr = std::unique_ptr<Expr>;

struct NumberExpr : Expr {
  NumberExpr() : Expr(ExprKind::kNumber) {}
  U256 value;
};

struct BoolExpr : Expr {
  BoolExpr() : Expr(ExprKind::kBoolLit) {}
  bool value = false;
};

struct IdentExpr : Expr {
  IdentExpr() : Expr(ExprKind::kIdent) {}
  std::string name;
  // Sema results:
  RefKind ref = RefKind::kUnresolved;
  int slot = -1;         ///< storage slot (state var)
  int mem_offset = -1;   ///< memory offset (local / param)
};

struct EnvExpr : Expr {
  EnvExpr() : Expr(ExprKind::kEnv) {}
  EnvKind env = EnvKind::kMsgSender;
};

struct IndexExpr : Expr {
  IndexExpr() : Expr(ExprKind::kIndex) {}
  ExprPtr base;   ///< must resolve to a state mapping
  ExprPtr index;
};

struct BinaryExpr : Expr {
  BinaryExpr() : Expr(ExprKind::kBinary) {}
  BinOp op = BinOp::kAdd;
  ExprPtr lhs;
  ExprPtr rhs;
};

struct UnaryExpr : Expr {
  UnaryExpr() : Expr(ExprKind::kUnary) {}
  UnOp op = UnOp::kNot;
  ExprPtr operand;
};

struct BalanceExpr : Expr {
  BalanceExpr() : Expr(ExprKind::kBalance) {}
  ExprPtr address;
};

struct KeccakExpr : Expr {
  KeccakExpr() : Expr(ExprKind::kKeccak) {}
  std::vector<ExprPtr> args;
};

struct TransferExpr : Expr {
  TransferExpr() : Expr(ExprKind::kTransfer) {}
  ExprPtr target;
  ExprPtr amount;
  bool is_send = false;  ///< send() returns bool instead of reverting
};

struct LowCallExpr : Expr {
  LowCallExpr() : Expr(ExprKind::kLowCall) {}
  ExprPtr target;
  ExprPtr amount;
};

struct DelegateExpr : Expr {
  DelegateExpr() : Expr(ExprKind::kDelegate) {}
  ExprPtr target;
};

struct CastExpr : Expr {
  CastExpr() : Expr(ExprKind::kCast) {}
  Type target_type;
  ExprPtr operand;
};

// ----------------------------------------------------------- Statements ----

enum class StmtKind {
  kBlock,
  kVarDecl,
  kAssign,
  kIf,
  kWhile,
  kFor,
  kReturn,
  kRequire,
  kExpr,
  kSelfdestruct,
};

struct Stmt {
  StmtKind kind;
  int line = 0;
  /// Nodes on the longest path from here down to a leaf, expressions
  /// included (set by the parser, which bounds it by kMaxNestingDepth).
  int height = 1;
  explicit Stmt(StmtKind k) : kind(k) {}
  virtual ~Stmt() = default;
};

using StmtPtr = std::unique_ptr<Stmt>;

struct BlockStmt : Stmt {
  BlockStmt() : Stmt(StmtKind::kBlock) {}
  std::vector<StmtPtr> stmts;
};

struct VarDeclStmt : Stmt {
  VarDeclStmt() : Stmt(StmtKind::kVarDecl) {}
  Type type;
  std::string name;
  ExprPtr init;         ///< may be null (zero-init)
  int mem_offset = -1;  ///< set by Sema
};

enum class AssignOp { kAssign, kAddAssign, kSubAssign, kMulAssign };

struct AssignStmt : Stmt {
  AssignStmt() : Stmt(StmtKind::kAssign) {}
  ExprPtr target;  ///< IdentExpr or IndexExpr lvalue
  AssignOp op = AssignOp::kAssign;
  ExprPtr value;   ///< null for ++/-- rewritten as x += 1
};

struct IfStmt : Stmt {
  IfStmt() : Stmt(StmtKind::kIf) {}
  ExprPtr cond;
  StmtPtr then_branch;
  StmtPtr else_branch;  ///< may be null
};

struct WhileStmt : Stmt {
  WhileStmt() : Stmt(StmtKind::kWhile) {}
  ExprPtr cond;
  StmtPtr body;
};

struct ForStmt : Stmt {
  ForStmt() : Stmt(StmtKind::kFor) {}
  StmtPtr init;   ///< may be null
  ExprPtr cond;   ///< may be null (infinite)
  StmtPtr post;   ///< may be null
  StmtPtr body;
};

struct ReturnStmt : Stmt {
  ReturnStmt() : Stmt(StmtKind::kReturn) {}
  ExprPtr value;  ///< may be null
};

struct RequireStmt : Stmt {
  RequireStmt() : Stmt(StmtKind::kRequire) {}
  ExprPtr cond;
};

struct ExprStmt : Stmt {
  ExprStmt() : Stmt(StmtKind::kExpr) {}
  ExprPtr expr;
};

struct SelfdestructStmt : Stmt {
  SelfdestructStmt() : Stmt(StmtKind::kSelfdestruct) {}
  ExprPtr beneficiary;
};

// ----------------------------------------------------------- Declarations --

struct Param {
  Type type;
  std::string name;
  int mem_offset = -1;  ///< set by Sema
};

struct FunctionDecl {
  std::string name;               ///< empty for the constructor
  std::vector<Param> params;
  std::optional<Type> return_type;
  bool payable = false;
  bool is_constructor = false;
  std::unique_ptr<BlockStmt> body;
  int line = 0;

  /// Canonical signature, e.g. "invest(uint256)".
  std::string Signature() const;
};

struct StateVarDecl {
  Type type;
  std::string name;
  ExprPtr init;   ///< may be null (zero)
  int slot = -1;  ///< set by Sema
  int line = 0;
};

struct ContractDecl {
  std::string name;
  std::vector<StateVarDecl> state_vars;
  std::vector<std::unique_ptr<FunctionDecl>> functions;  ///< excl. ctor
  std::unique_ptr<FunctionDecl> constructor;             ///< may be null

  const StateVarDecl* FindStateVar(const std::string& var_name) const {
    for (const auto& sv : state_vars) {
      if (sv.name == var_name) return &sv;
    }
    return nullptr;
  }
};

}  // namespace mufuzz::lang

#endif  // MUFUZZ_LANG_AST_H_
