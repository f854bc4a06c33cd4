#include "lang/parser.h"

#include <algorithm>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "lang/lexer.h"

namespace mufuzz::lang {

namespace {

/// Recursive-descent parser over the token stream. All Parse* methods return
/// a Result and propagate the first error with line information. Every
/// recursive descent holds a Nesting level open and every built node
/// records its height, so both stay within kMaxNestingDepth.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::unique_ptr<ContractDecl>> Run() {
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kContract));
    auto contract = std::make_unique<ContractDecl>();
    MUFUZZ_ASSIGN_OR_RETURN(contract->name, ExpectIdent());
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kLBrace));
    while (!Check(TokenKind::kRBrace)) {
      if (Check(TokenKind::kEof)) {
        return Err("unexpected end of file inside contract");
      }
      MUFUZZ_RETURN_IF_ERROR(ParseMember(contract.get()));
    }
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
    return contract;
  }

 private:
  // ------------------------------------------------------------ Helpers --
  const Token& Peek(size_t off = 0) const {
    size_t idx = pos_ + off;
    return idx < tokens_.size() ? tokens_[idx] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  bool Match(TokenKind kind) {
    if (!Check(kind)) return false;
    Advance();
    return true;
  }
  Status Expect(TokenKind kind) {
    if (!Check(kind)) {
      return Status::ParseError(std::string("expected ") +
                                TokenKindName(kind) + " but found " +
                                TokenKindName(Peek().kind) + " at line " +
                                std::to_string(Peek().line));
    }
    Advance();
    return Status::OK();
  }
  Result<std::string> ExpectIdent() {
    if (!Check(TokenKind::kIdent)) {
      return Status::ParseError(std::string("expected identifier, found ") +
                                TokenKindName(Peek().kind) + " at line " +
                                std::to_string(Peek().line));
    }
    return Advance().text;
  }
  Status Err(const std::string& msg) const {
    return Status::ParseError(msg + " at line " +
                              std::to_string(Peek().line));
  }
  Status TooDeep() const {
    return Err("nesting deeper than " + std::to_string(kMaxNestingDepth) +
               " levels");
  }

  /// Holds one nesting level open for its scope; check ok() right after
  /// construction.
  class Nesting {
   public:
    explicit Nesting(int* open) : open_(open) { ++*open_; }
    ~Nesting() { --*open_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;
    bool ok() const { return *open_ <= kMaxNestingDepth; }

   private:
    int* open_;
  };

  static int Height(const ExprPtr& e) { return e ? e->height : 0; }
  static int Height(const StmtPtr& s) { return s ? s->height : 0; }

  /// Sets `node`'s height one above its tallest child; fails past
  /// kMaxNestingDepth.
  template <typename Node>
  Status SetHeight(Node* node, std::initializer_list<int> children) const {
    node->height = std::max(children) + 1;
    return node->height > kMaxNestingDepth ? TooDeep() : Status::OK();
  }

  bool CheckTypeKeyword() const {
    return Check(TokenKind::kUint256) || Check(TokenKind::kBool) ||
           Check(TokenKind::kAddress) || Check(TokenKind::kMapping);
  }

  // -------------------------------------------------------------- Types --
  Result<Type> ParseType() {
    if (Match(TokenKind::kUint256)) return Type::Uint256();
    if (Match(TokenKind::kBool)) return Type::Bool();
    if (Match(TokenKind::kAddress)) return Type::AddressT();
    if (Match(TokenKind::kMapping)) {
      Nesting nesting(&open_);
      if (!nesting.ok()) return TooDeep();
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      MUFUZZ_ASSIGN_OR_RETURN(Type key, ParseType());
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kArrow));
      MUFUZZ_ASSIGN_OR_RETURN(Type value, ParseType());
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      if (!key.IsScalar() || !value.IsScalar()) {
        return Err("mapping key/value must be scalar types");
      }
      return Type::Mapping(key.kind, value.kind);
    }
    return Err("expected a type");
  }

  // ------------------------------------------------------------ Members --
  Status ParseMember(ContractDecl* contract) {
    if (Check(TokenKind::kConstructor) || Check(TokenKind::kFunction)) {
      return ParseFunction(contract);
    }
    if (CheckTypeKeyword()) return ParseStateVar(contract);
    return Err("expected state variable, constructor, or function");
  }

  Status ParseStateVar(ContractDecl* contract) {
    StateVarDecl sv;
    sv.line = Peek().line;
    MUFUZZ_ASSIGN_OR_RETURN(sv.type, ParseType());
    // Accept and ignore visibility on state vars (public x;).
    while (Match(TokenKind::kPublic) || Match(TokenKind::kInternal) ||
           Match(TokenKind::kPrivate)) {
    }
    MUFUZZ_ASSIGN_OR_RETURN(sv.name, ExpectIdent());
    if (Match(TokenKind::kAssign)) {
      MUFUZZ_ASSIGN_OR_RETURN(sv.init, ParseExpr());
    }
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    contract->state_vars.push_back(std::move(sv));
    return Status::OK();
  }

  Status ParseFunction(ContractDecl* contract) {
    auto fn = std::make_unique<FunctionDecl>();
    fn->line = Peek().line;
    if (Match(TokenKind::kConstructor)) {
      fn->is_constructor = true;
    } else {
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kFunction));
      MUFUZZ_ASSIGN_OR_RETURN(fn->name, ExpectIdent());
    }
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    if (!Check(TokenKind::kRParen)) {
      do {
        Param p;
        MUFUZZ_ASSIGN_OR_RETURN(p.type, ParseType());
        MUFUZZ_ASSIGN_OR_RETURN(p.name, ExpectIdent());
        if (!p.type.IsScalar()) {
          return Err("function parameters must be scalar types");
        }
        fn->params.push_back(std::move(p));
      } while (Match(TokenKind::kComma));
    }
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRParen));

    // Modifier soup: public/payable/view/external/... in any order.
    for (;;) {
      if (Match(TokenKind::kPayable)) {
        fn->payable = true;
      } else if (Match(TokenKind::kPublic) || Match(TokenKind::kView) ||
                 Match(TokenKind::kExternal) ||
                 Match(TokenKind::kInternal) ||
                 Match(TokenKind::kPrivate)) {
        // accepted, no semantic effect in MiniSol
      } else if (Check(TokenKind::kReturns)) {
        Advance();
        MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        MUFUZZ_ASSIGN_OR_RETURN(Type ret, ParseType());
        // Tolerate a name for the return value.
        if (Check(TokenKind::kIdent)) Advance();
        MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        if (!ret.IsScalar()) return Err("return type must be scalar");
        fn->return_type = ret;
      } else {
        break;
      }
    }

    MUFUZZ_ASSIGN_OR_RETURN(auto body, ParseBlock());
    fn->body = std::move(body);

    if (fn->is_constructor) {
      if (contract->constructor != nullptr) {
        return Err("duplicate constructor");
      }
      contract->constructor = std::move(fn);
    } else {
      contract->functions.push_back(std::move(fn));
    }
    return Status::OK();
  }

  // --------------------------------------------------------- Statements --
  Result<std::unique_ptr<BlockStmt>> ParseBlock() {
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kLBrace));
    auto block = std::make_unique<BlockStmt>();
    block->line = Peek().line;
    int tallest = 0;
    while (!Check(TokenKind::kRBrace)) {
      if (Check(TokenKind::kEof)) return Err("unexpected end of file in block");
      MUFUZZ_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStmt());
      tallest = std::max(tallest, stmt->height);
      block->stmts.push_back(std::move(stmt));
    }
    MUFUZZ_RETURN_IF_ERROR(SetHeight(block.get(), {tallest}));
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
    return block;
  }

  Result<StmtPtr> ParseStmt() {
    Nesting nesting(&open_);
    if (!nesting.ok()) return TooDeep();
    int line = Peek().line;
    if (Check(TokenKind::kLBrace)) {
      MUFUZZ_ASSIGN_OR_RETURN(auto block, ParseBlock());
      return StmtPtr(std::move(block));
    }
    if (Check(TokenKind::kIf)) return ParseIf();
    if (Check(TokenKind::kWhile)) return ParseWhile();
    if (Check(TokenKind::kFor)) return ParseFor();
    if (Match(TokenKind::kReturn)) {
      auto stmt = std::make_unique<ReturnStmt>();
      stmt->line = line;
      if (!Check(TokenKind::kSemicolon)) {
        MUFUZZ_ASSIGN_OR_RETURN(stmt->value, ParseExpr());
      }
      MUFUZZ_RETURN_IF_ERROR(SetHeight(stmt.get(), {Height(stmt->value)}));
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
      return StmtPtr(std::move(stmt));
    }
    if (Match(TokenKind::kRequire)) {
      auto stmt = std::make_unique<RequireStmt>();
      stmt->line = line;
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      MUFUZZ_ASSIGN_OR_RETURN(stmt->cond, ParseExpr());
      if (Match(TokenKind::kComma)) {
        MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kString));
      }
      MUFUZZ_RETURN_IF_ERROR(SetHeight(stmt.get(), {Height(stmt->cond)}));
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
      return StmtPtr(std::move(stmt));
    }
    if (Match(TokenKind::kSelfdestruct)) {
      auto stmt = std::make_unique<SelfdestructStmt>();
      stmt->line = line;
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      MUFUZZ_ASSIGN_OR_RETURN(stmt->beneficiary, ParseExpr());
      MUFUZZ_RETURN_IF_ERROR(
          SetHeight(stmt.get(), {Height(stmt->beneficiary)}));
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
      return StmtPtr(std::move(stmt));
    }
    // Local variable declaration.
    if (CheckTypeKeyword()) {
      MUFUZZ_ASSIGN_OR_RETURN(StmtPtr decl, ParseSimpleVarDecl());
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
      return decl;
    }
    // Assignment or expression statement.
    MUFUZZ_ASSIGN_OR_RETURN(StmtPtr simple, ParseSimpleAssignOrExpr());
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    return simple;
  }

  /// `type name (= expr)?` without the trailing semicolon (shared by
  /// statements and for-init).
  Result<StmtPtr> ParseSimpleVarDecl() {
    auto stmt = std::make_unique<VarDeclStmt>();
    stmt->line = Peek().line;
    MUFUZZ_ASSIGN_OR_RETURN(stmt->type, ParseType());
    if (!stmt->type.IsScalar()) {
      return Err("local variables must be scalar types");
    }
    MUFUZZ_ASSIGN_OR_RETURN(stmt->name, ExpectIdent());
    if (Match(TokenKind::kAssign)) {
      MUFUZZ_ASSIGN_OR_RETURN(stmt->init, ParseExpr());
    }
    MUFUZZ_RETURN_IF_ERROR(SetHeight(stmt.get(), {Height(stmt->init)}));
    return StmtPtr(std::move(stmt));
  }

  /// Assignment (incl. compound and ++/--) or a bare expression, without the
  /// trailing semicolon (shared by statements and for-init/post).
  Result<StmtPtr> ParseSimpleAssignOrExpr() {
    int line = Peek().line;
    MUFUZZ_ASSIGN_OR_RETURN(ExprPtr first, ParseExpr());

    AssignOp op;
    if (Match(TokenKind::kAssign)) {
      op = AssignOp::kAssign;
    } else if (Match(TokenKind::kPlusAssign)) {
      op = AssignOp::kAddAssign;
    } else if (Match(TokenKind::kMinusAssign)) {
      op = AssignOp::kSubAssign;
    } else if (Match(TokenKind::kStarAssign)) {
      op = AssignOp::kMulAssign;
    } else if (Check(TokenKind::kPlusPlus) || Check(TokenKind::kMinusMinus)) {
      // x++ => x += 1.
      bool inc = Advance().kind == TokenKind::kPlusPlus;
      auto stmt = std::make_unique<AssignStmt>();
      stmt->line = line;
      stmt->target = std::move(first);
      stmt->op = inc ? AssignOp::kAddAssign : AssignOp::kSubAssign;
      auto one = std::make_unique<NumberExpr>();
      one->value = U256(1);
      one->line = line;
      stmt->value = std::move(one);
      MUFUZZ_RETURN_IF_ERROR(SetHeight(stmt.get(), {Height(stmt->target)}));
      return StmtPtr(std::move(stmt));
    } else {
      auto stmt = std::make_unique<ExprStmt>();
      stmt->line = line;
      stmt->expr = std::move(first);
      MUFUZZ_RETURN_IF_ERROR(SetHeight(stmt.get(), {Height(stmt->expr)}));
      return StmtPtr(std::move(stmt));
    }

    auto stmt = std::make_unique<AssignStmt>();
    stmt->line = line;
    stmt->target = std::move(first);
    stmt->op = op;
    MUFUZZ_ASSIGN_OR_RETURN(stmt->value, ParseExpr());
    MUFUZZ_RETURN_IF_ERROR(SetHeight(
        stmt.get(), {Height(stmt->target), Height(stmt->value)}));
    return StmtPtr(std::move(stmt));
  }

  Result<StmtPtr> ParseIf() {
    auto stmt = std::make_unique<IfStmt>();
    stmt->line = Peek().line;
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kIf));
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    MUFUZZ_ASSIGN_OR_RETURN(stmt->cond, ParseExpr());
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    MUFUZZ_ASSIGN_OR_RETURN(stmt->then_branch, ParseStmt());
    if (Match(TokenKind::kElse)) {
      MUFUZZ_ASSIGN_OR_RETURN(stmt->else_branch, ParseStmt());
    }
    MUFUZZ_RETURN_IF_ERROR(
        SetHeight(stmt.get(), {Height(stmt->cond), Height(stmt->then_branch),
                               Height(stmt->else_branch)}));
    return StmtPtr(std::move(stmt));
  }

  Result<StmtPtr> ParseWhile() {
    auto stmt = std::make_unique<WhileStmt>();
    stmt->line = Peek().line;
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kWhile));
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    MUFUZZ_ASSIGN_OR_RETURN(stmt->cond, ParseExpr());
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    MUFUZZ_ASSIGN_OR_RETURN(stmt->body, ParseStmt());
    MUFUZZ_RETURN_IF_ERROR(SetHeight(
        stmt.get(), {Height(stmt->cond), Height(stmt->body)}));
    return StmtPtr(std::move(stmt));
  }

  Result<StmtPtr> ParseFor() {
    auto stmt = std::make_unique<ForStmt>();
    stmt->line = Peek().line;
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kFor));
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    if (!Check(TokenKind::kSemicolon)) {
      if (CheckTypeKeyword()) {
        MUFUZZ_ASSIGN_OR_RETURN(stmt->init, ParseSimpleVarDecl());
      } else {
        MUFUZZ_ASSIGN_OR_RETURN(stmt->init, ParseSimpleAssignOrExpr());
      }
    }
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    if (!Check(TokenKind::kSemicolon)) {
      MUFUZZ_ASSIGN_OR_RETURN(stmt->cond, ParseExpr());
    }
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    if (!Check(TokenKind::kRParen)) {
      MUFUZZ_ASSIGN_OR_RETURN(stmt->post, ParseSimpleAssignOrExpr());
    }
    MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    MUFUZZ_ASSIGN_OR_RETURN(stmt->body, ParseStmt());
    MUFUZZ_RETURN_IF_ERROR(
        SetHeight(stmt.get(), {Height(stmt->init), Height(stmt->cond),
                               Height(stmt->post), Height(stmt->body)}));
    return StmtPtr(std::move(stmt));
  }

  // -------------------------------------------------------- Expressions --
  Result<ExprPtr> ParseExpr() {
    Nesting nesting(&open_);
    if (!nesting.ok()) return TooDeep();
    return ParseOr();
  }

  Result<ExprPtr> ParseOr() {
    MUFUZZ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (Check(TokenKind::kOrOr)) {
      int line = Advance().line;
      MUFUZZ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      MUFUZZ_ASSIGN_OR_RETURN(
          lhs, MakeBinary(BinOp::kOr, std::move(lhs), std::move(rhs), line));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    MUFUZZ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseEquality());
    while (Check(TokenKind::kAndAnd)) {
      int line = Advance().line;
      MUFUZZ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseEquality());
      MUFUZZ_ASSIGN_OR_RETURN(
          lhs, MakeBinary(BinOp::kAnd, std::move(lhs), std::move(rhs), line));
    }
    return lhs;
  }

  Result<ExprPtr> ParseEquality() {
    MUFUZZ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseRelational());
    while (Check(TokenKind::kEq) || Check(TokenKind::kNe)) {
      BinOp op = Check(TokenKind::kEq) ? BinOp::kEq : BinOp::kNe;
      int line = Advance().line;
      MUFUZZ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseRelational());
      MUFUZZ_ASSIGN_OR_RETURN(
          lhs, MakeBinary(op, std::move(lhs), std::move(rhs), line));
    }
    return lhs;
  }

  Result<ExprPtr> ParseRelational() {
    MUFUZZ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    while (Check(TokenKind::kLt) || Check(TokenKind::kGt) ||
           Check(TokenKind::kLe) || Check(TokenKind::kGe)) {
      BinOp op = BinOp::kLt;
      if (Check(TokenKind::kGt)) op = BinOp::kGt;
      if (Check(TokenKind::kLe)) op = BinOp::kLe;
      if (Check(TokenKind::kGe)) op = BinOp::kGe;
      int line = Advance().line;
      MUFUZZ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      MUFUZZ_ASSIGN_OR_RETURN(
          lhs, MakeBinary(op, std::move(lhs), std::move(rhs), line));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    MUFUZZ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) {
      BinOp op = Check(TokenKind::kPlus) ? BinOp::kAdd : BinOp::kSub;
      int line = Advance().line;
      MUFUZZ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      MUFUZZ_ASSIGN_OR_RETURN(
          lhs, MakeBinary(op, std::move(lhs), std::move(rhs), line));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    MUFUZZ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (Check(TokenKind::kStar) || Check(TokenKind::kSlash) ||
           Check(TokenKind::kPercent)) {
      BinOp op = BinOp::kMul;
      if (Check(TokenKind::kSlash)) op = BinOp::kDiv;
      if (Check(TokenKind::kPercent)) op = BinOp::kMod;
      int line = Advance().line;
      MUFUZZ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      MUFUZZ_ASSIGN_OR_RETURN(
          lhs, MakeBinary(op, std::move(lhs), std::move(rhs), line));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (Check(TokenKind::kBang) || Check(TokenKind::kMinus)) {
      Nesting nesting(&open_);
      if (!nesting.ok()) return TooDeep();
      UnOp op = Check(TokenKind::kBang) ? UnOp::kNot : UnOp::kNeg;
      int line = Advance().line;
      MUFUZZ_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      auto expr = std::make_unique<UnaryExpr>();
      expr->op = op;
      expr->operand = std::move(operand);
      expr->line = line;
      MUFUZZ_RETURN_IF_ERROR(SetHeight(expr.get(), {Height(expr->operand)}));
      return ExprPtr(std::move(expr));
    }
    return ParsePostfix();
  }

  Result<ExprPtr> ParsePostfix() {
    MUFUZZ_ASSIGN_OR_RETURN(ExprPtr expr, ParsePrimary());
    for (;;) {
      if (Match(TokenKind::kLBracket)) {
        auto index = std::make_unique<IndexExpr>();
        index->line = Peek().line;
        index->base = std::move(expr);
        MUFUZZ_ASSIGN_OR_RETURN(index->index, ParseExpr());
        MUFUZZ_RETURN_IF_ERROR(SetHeight(
            index.get(), {Height(index->base), Height(index->index)}));
        MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
        expr = std::move(index);
        continue;
      }
      if (Check(TokenKind::kDot)) {
        Advance();
        MUFUZZ_ASSIGN_OR_RETURN(expr, ParseMemberAccess(std::move(expr)));
        continue;
      }
      break;
    }
    return expr;
  }

  /// Handles `<expr>.member...` after the dot was consumed.
  Result<ExprPtr> ParseMemberAccess(ExprPtr base) {
    int line = Peek().line;
    std::string member;
    if (Check(TokenKind::kIdent)) {
      member = Advance().text;
    } else {
      return Err("expected member name after '.'");
    }

    // msg.sender / msg.value / msg.data, block.timestamp / block.number,
    // tx.origin — only valid on the magic bases.
    if (auto* env = AsMagicBase(base.get())) {
      if (env->name == "msg" && member == "sender") {
        return MakeEnv(EnvKind::kMsgSender, line);
      }
      if (env->name == "msg" && member == "value") {
        return MakeEnv(EnvKind::kMsgValue, line);
      }
      if (env->name == "msg" && member == "data") {
        // Only used inside delegatecall(...) argument lists; represented as
        // a number 0 placeholder (the call forwards calldata regardless).
        auto zero = std::make_unique<NumberExpr>();
        zero->value = U256(0);
        zero->line = line;
        return ExprPtr(std::move(zero));
      }
      if (env->name == "block" && member == "timestamp") {
        return MakeEnv(EnvKind::kBlockTimestamp, line);
      }
      if (env->name == "block" && member == "number") {
        return MakeEnv(EnvKind::kBlockNumber, line);
      }
      if (env->name == "tx" && member == "origin") {
        return MakeEnv(EnvKind::kTxOrigin, line);
      }
      return Err("unknown member '" + member + "' on '" + env->name + "'");
    }

    if (member == "balance") {
      auto bal = std::make_unique<BalanceExpr>();
      bal->line = line;
      bal->address = std::move(base);
      MUFUZZ_RETURN_IF_ERROR(SetHeight(bal.get(), {Height(bal->address)}));
      return ExprPtr(std::move(bal));
    }
    if (member == "transfer" || member == "send") {
      auto xfer = std::make_unique<TransferExpr>();
      xfer->line = line;
      xfer->is_send = (member == "send");
      xfer->target = std::move(base);
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      MUFUZZ_ASSIGN_OR_RETURN(xfer->amount, ParseExpr());
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      MUFUZZ_RETURN_IF_ERROR(SetHeight(
          xfer.get(), {Height(xfer->target), Height(xfer->amount)}));
      return ExprPtr(std::move(xfer));
    }
    if (member == "call") {
      // <addr>.call.value(v)()
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kDot));
      MUFUZZ_ASSIGN_OR_RETURN(std::string value_kw, ExpectIdent());
      if (value_kw != "value") return Err("expected 'value' after '.call.'");
      auto low = std::make_unique<LowCallExpr>();
      low->line = line;
      low->target = std::move(base);
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      MUFUZZ_ASSIGN_OR_RETURN(low->amount, ParseExpr());
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      MUFUZZ_RETURN_IF_ERROR(SetHeight(
          low.get(), {Height(low->target), Height(low->amount)}));
      return ExprPtr(std::move(low));
    }
    if (member == "delegatecall") {
      auto del = std::make_unique<DelegateExpr>();
      del->line = line;
      del->target = std::move(base);
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      // Arguments are parsed and discarded: the call forwards calldata.
      if (!Check(TokenKind::kRParen)) {
        do {
          MUFUZZ_ASSIGN_OR_RETURN(ExprPtr discard, ParseExpr());
          (void)discard;
        } while (Match(TokenKind::kComma));
      }
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      MUFUZZ_RETURN_IF_ERROR(SetHeight(del.get(), {Height(del->target)}));
      return ExprPtr(std::move(del));
    }
    return Err("unsupported member '" + member + "'");
  }

  Result<ExprPtr> ParsePrimary() {
    int line = Peek().line;

    if (Check(TokenKind::kNumber)) {
      std::string text = Advance().text;
      Result<U256> value = (text.size() > 2 && text[1] == 'x')
                               ? U256::FromHex(text)
                               : U256::FromDecimal(text);
      if (!value.ok()) return value.status();
      U256 v = value.value();
      // Ether units scale the literal.
      if (Match(TokenKind::kWei)) {
        // 1 wei == 1.
      } else if (Match(TokenKind::kFinney)) {
        v = v * U256::PowerOfTen(15);
      } else if (Match(TokenKind::kEther)) {
        v = v * U256::PowerOfTen(18);
      }
      auto expr = std::make_unique<NumberExpr>();
      expr->value = v;
      expr->line = line;
      return ExprPtr(std::move(expr));
    }
    if (Match(TokenKind::kTrue) || Check(TokenKind::kFalse)) {
      bool value = tokens_[pos_ - 1].kind == TokenKind::kTrue;
      if (!value) Advance();  // consume 'false'
      auto expr = std::make_unique<BoolExpr>();
      expr->value = value;
      expr->line = line;
      return ExprPtr(std::move(expr));
    }
    if (Match(TokenKind::kNow)) {
      return MakeEnv(EnvKind::kBlockTimestamp, line);
    }
    if (Match(TokenKind::kThis)) {
      return MakeEnv(EnvKind::kThis, line);
    }
    if (Check(TokenKind::kMsg) || Check(TokenKind::kBlock) ||
        Check(TokenKind::kTx) || Check(TokenKind::kAbi)) {
      // Magic bases: resolved by the following member access.
      auto expr = std::make_unique<IdentExpr>();
      expr->name = Advance().text;
      expr->line = line;
      magic_bases_.push_back(expr.get());
      return ExprPtr(std::move(expr));
    }
    if (Match(TokenKind::kKeccak256)) {
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      auto expr = std::make_unique<KeccakExpr>();
      expr->line = line;
      MUFUZZ_RETURN_IF_ERROR(ParseKeccakArgs(expr.get()));
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      int tallest = 0;
      for (const ExprPtr& arg : expr->args) {
        tallest = std::max(tallest, arg->height);
      }
      MUFUZZ_RETURN_IF_ERROR(SetHeight(expr.get(), {tallest}));
      return ExprPtr(std::move(expr));
    }
    // Casts: uint256(x), address(x).
    if ((Check(TokenKind::kUint256) || Check(TokenKind::kAddress) ||
         Check(TokenKind::kBool)) &&
        Peek(1).kind == TokenKind::kLParen) {
      auto cast = std::make_unique<CastExpr>();
      cast->line = line;
      MUFUZZ_ASSIGN_OR_RETURN(cast->target_type, ParseType());
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      MUFUZZ_ASSIGN_OR_RETURN(cast->operand, ParseExpr());
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      MUFUZZ_RETURN_IF_ERROR(SetHeight(cast.get(), {Height(cast->operand)}));
      return ExprPtr(std::move(cast));
    }
    if (Check(TokenKind::kIdent)) {
      auto expr = std::make_unique<IdentExpr>();
      expr->name = Advance().text;
      expr->line = line;
      return ExprPtr(std::move(expr));
    }
    if (Match(TokenKind::kLParen)) {
      MUFUZZ_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return inner;
    }
    return Err(std::string("unexpected token ") +
               TokenKindName(Peek().kind) + " in expression");
  }

  /// keccak256 argument list, flattening abi.encodePacked(...).
  Status ParseKeccakArgs(KeccakExpr* expr) {
    if (Check(TokenKind::kRParen)) return Status::OK();
    do {
      // abi.encodePacked(a, b, ...) — splice inner args.
      if (Check(TokenKind::kAbi) && Peek(1).kind == TokenKind::kDot) {
        Nesting nesting(&open_);
        if (!nesting.ok()) return TooDeep();
        Advance();  // abi
        Advance();  // .
        MUFUZZ_ASSIGN_OR_RETURN(std::string fn, ExpectIdent());
        if (fn != "encodePacked" && fn != "encode") {
          return Err("unsupported abi function '" + fn + "'");
        }
        MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        MUFUZZ_RETURN_IF_ERROR(ParseKeccakArgs(expr));
        MUFUZZ_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        continue;
      }
      MUFUZZ_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
      expr->args.push_back(std::move(arg));
    } while (Match(TokenKind::kComma));
    return Status::OK();
  }

  // Magic bases (msg/block/tx/abi) are temporarily IdentExpr nodes; this
  // recognizes them during member access.
  IdentExpr* AsMagicBase(Expr* e) {
    if (e->kind != ExprKind::kIdent) return nullptr;
    auto* ident = static_cast<IdentExpr*>(e);
    for (IdentExpr* magic : magic_bases_) {
      if (magic == ident) return ident;
    }
    return nullptr;
  }

  /// Binary chains are built in a loop, left-deep: the height check here is
  /// what bounds `1+1+...+1`.
  Result<ExprPtr> MakeBinary(BinOp op, ExprPtr lhs, ExprPtr rhs, int line) {
    auto expr = std::make_unique<BinaryExpr>();
    expr->op = op;
    expr->lhs = std::move(lhs);
    expr->rhs = std::move(rhs);
    expr->line = line;
    MUFUZZ_RETURN_IF_ERROR(
        SetHeight(expr.get(), {Height(expr->lhs), Height(expr->rhs)}));
    return ExprPtr(std::move(expr));
  }

  static Result<ExprPtr> MakeEnv(EnvKind env, int line) {
    auto expr = std::make_unique<EnvExpr>();
    expr->env = env;
    expr->line = line;
    return ExprPtr(std::move(expr));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int open_ = 0;  ///< nesting levels currently open (see Nesting)
  std::vector<IdentExpr*> magic_bases_;
};

}  // namespace

Result<std::unique_ptr<ContractDecl>> ParseContract(std::string_view source) {
  MUFUZZ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  Parser parser(std::move(tokens));
  return parser.Run();
}

}  // namespace mufuzz::lang
