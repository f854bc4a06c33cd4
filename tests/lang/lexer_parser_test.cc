#include <gtest/gtest.h>

#include <string>

#include "lang/compiler.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/sema.h"

namespace mufuzz::lang {
namespace {

// ------------------------------------------------------------------ Lexer --

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("contract C { uint256 x = 5; }");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  ASSERT_GE(t.size(), 9u);
  EXPECT_EQ(t[0].kind, TokenKind::kContract);
  EXPECT_EQ(t[1].kind, TokenKind::kIdent);
  EXPECT_EQ(t[1].text, "C");
  EXPECT_EQ(t[2].kind, TokenKind::kLBrace);
  EXPECT_EQ(t[3].kind, TokenKind::kUint256);
  EXPECT_EQ(t[5].kind, TokenKind::kAssign);
  EXPECT_EQ(t[6].kind, TokenKind::kNumber);
  EXPECT_EQ(t[6].text, "5");
  EXPECT_EQ(t.back().kind, TokenKind::kEof);
}

TEST(LexerTest, UintAliasesToUint256) {
  auto tokens = Tokenize("uint x");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].kind, TokenKind::kUint256);
}

TEST(LexerTest, CommentsAreSkipped) {
  auto tokens = Tokenize("a // line comment\n b /* block\n comment */ c");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens.value().size(), 4u);  // a b c eof
  EXPECT_EQ(tokens.value()[0].text, "a");
  EXPECT_EQ(tokens.value()[1].text, "b");
  EXPECT_EQ(tokens.value()[2].text, "c");
}

TEST(LexerTest, UnterminatedBlockCommentFails) {
  EXPECT_FALSE(Tokenize("a /* never closed").ok());
}

TEST(LexerTest, MultiCharOperators) {
  auto tokens = Tokenize("== != <= >= && || += -= *= => ++ --");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  EXPECT_EQ(t[0].kind, TokenKind::kEq);
  EXPECT_EQ(t[1].kind, TokenKind::kNe);
  EXPECT_EQ(t[2].kind, TokenKind::kLe);
  EXPECT_EQ(t[3].kind, TokenKind::kGe);
  EXPECT_EQ(t[4].kind, TokenKind::kAndAnd);
  EXPECT_EQ(t[5].kind, TokenKind::kOrOr);
  EXPECT_EQ(t[6].kind, TokenKind::kPlusAssign);
  EXPECT_EQ(t[7].kind, TokenKind::kMinusAssign);
  EXPECT_EQ(t[8].kind, TokenKind::kStarAssign);
  EXPECT_EQ(t[9].kind, TokenKind::kArrow);
  EXPECT_EQ(t[10].kind, TokenKind::kPlusPlus);
  EXPECT_EQ(t[11].kind, TokenKind::kMinusMinus);
}

TEST(LexerTest, HexNumbers) {
  auto tokens = Tokenize("0xdeadBEEF");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens.value()[0].text, "0xdeadBEEF");
}

TEST(LexerTest, StringsForRequireMessages) {
  auto tokens = Tokenize("require(x, \"must hold\")");
  ASSERT_TRUE(tokens.ok());
  bool found = false;
  for (const auto& tok : tokens.value()) {
    if (tok.kind == TokenKind::kString) {
      EXPECT_EQ(tok.text, "must hold");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LexerTest, LineNumbersTracked) {
  auto tokens = Tokenize("a\nb\n  c");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].line, 1);
  EXPECT_EQ(tokens.value()[1].line, 2);
  EXPECT_EQ(tokens.value()[2].line, 3);
  EXPECT_EQ(tokens.value()[2].column, 3);
}

TEST(LexerTest, RejectsUnknownCharacters) {
  EXPECT_FALSE(Tokenize("a $ b").ok());
}

// ----------------------------------------------------------------- Parser --

TEST(ParserTest, MinimalContract) {
  auto contract = ParseContract("contract Empty { }");
  ASSERT_TRUE(contract.ok());
  EXPECT_EQ(contract.value()->name, "Empty");
  EXPECT_TRUE(contract.value()->state_vars.empty());
  EXPECT_TRUE(contract.value()->functions.empty());
  EXPECT_EQ(contract.value()->constructor, nullptr);
}

TEST(ParserTest, StateVarsWithInitializers) {
  auto contract = ParseContract(R"(
    contract C {
      uint256 phase = 0;
      uint256 goal;
      address owner;
      mapping(address => uint256) invests;
    })");
  ASSERT_TRUE(contract.ok());
  const auto& c = *contract.value();
  ASSERT_EQ(c.state_vars.size(), 4u);
  EXPECT_EQ(c.state_vars[0].name, "phase");
  EXPECT_NE(c.state_vars[0].init, nullptr);
  EXPECT_EQ(c.state_vars[1].init, nullptr);
  EXPECT_EQ(c.state_vars[2].type.kind, TypeKind::kAddress);
  EXPECT_EQ(c.state_vars[3].type.kind, TypeKind::kMapping);
  EXPECT_EQ(c.state_vars[3].type.key, TypeKind::kAddress);
  EXPECT_EQ(c.state_vars[3].type.value, TypeKind::kUint256);
}

TEST(ParserTest, ConstructorAndFunctions) {
  auto contract = ParseContract(R"(
    contract C {
      uint256 x;
      constructor() public { x = 1; }
      function f(uint256 a, address b) public payable returns (uint256) {
        return a;
      }
    })");
  ASSERT_TRUE(contract.ok());
  const auto& c = *contract.value();
  ASSERT_NE(c.constructor, nullptr);
  ASSERT_EQ(c.functions.size(), 1u);
  const auto& f = *c.functions[0];
  EXPECT_EQ(f.name, "f");
  EXPECT_TRUE(f.payable);
  ASSERT_EQ(f.params.size(), 2u);
  EXPECT_EQ(f.Signature(), "f(uint256,address)");
  ASSERT_TRUE(f.return_type.has_value());
  EXPECT_EQ(f.return_type->kind, TypeKind::kUint256);
}

TEST(ParserTest, EtherUnitsScaleLiterals) {
  auto contract = ParseContract(R"(
    contract C {
      uint256 a = 100 ether;
      uint256 b = 88 finney;
      uint256 c = 7 wei;
    })");
  ASSERT_TRUE(contract.ok());
  const auto& vars = contract.value()->state_vars;
  auto* a = static_cast<NumberExpr*>(vars[0].init.get());
  auto* b = static_cast<NumberExpr*>(vars[1].init.get());
  auto* c = static_cast<NumberExpr*>(vars[2].init.get());
  EXPECT_EQ(a->value, U256(100) * U256::PowerOfTen(18));
  EXPECT_EQ(b->value, U256(88) * U256::PowerOfTen(15));
  EXPECT_EQ(c->value, U256(7));
}

TEST(ParserTest, OperatorPrecedence) {
  auto contract = ParseContract(R"(
    contract C {
      function f(uint256 a) public {
        uint256 x = 1 + 2 * 3;
      }
    })");
  ASSERT_TRUE(contract.ok());
  const auto& body = *contract.value()->functions[0]->body;
  const auto& decl = static_cast<const VarDeclStmt&>(*body.stmts[0]);
  const auto& add = static_cast<const BinaryExpr&>(*decl.init);
  EXPECT_EQ(add.op, BinOp::kAdd);
  const auto& mul = static_cast<const BinaryExpr&>(*add.rhs);
  EXPECT_EQ(mul.op, BinOp::kMul);
}

TEST(ParserTest, MagicEnvExpressions) {
  auto contract = ParseContract(R"(
    contract C {
      address owner;
      uint256 t;
      constructor() public {
        owner = msg.sender;
        t = block.timestamp + block.number + now + msg.value;
      }
    })");
  ASSERT_TRUE(contract.ok());
}

TEST(ParserTest, TransferSendCallChains) {
  auto contract = ParseContract(R"(
    contract C {
      function f(address target, uint256 v) public {
        target.transfer(v);
        bool ok = target.send(v);
        bool ok2 = target.call.value(v)();
        bool ok3 = target.delegatecall(msg.data);
      }
    })");
  ASSERT_TRUE(contract.ok()) << contract.status().ToString();
  const auto& body = *contract.value()->functions[0]->body;
  ASSERT_EQ(body.stmts.size(), 4u);
  const auto& xfer = static_cast<const ExprStmt&>(*body.stmts[0]);
  EXPECT_EQ(xfer.expr->kind, ExprKind::kTransfer);
}

TEST(ParserTest, KeccakWithEncodePacked) {
  auto contract = ParseContract(R"(
    contract C {
      function f(uint256 n) public returns (uint256) {
        return uint256(keccak256(abi.encodePacked(block.timestamp, now))) % 200;
      }
    })");
  ASSERT_TRUE(contract.ok()) << contract.status().ToString();
}

TEST(ParserTest, IfElseWhileForRequire) {
  auto contract = ParseContract(R"(
    contract C {
      uint256 s;
      function f(uint256 n) public {
        if (n < 10) { s = 1; } else { s = 2; }
        while (n > 0) { n = n - 1; }
        for (uint256 i = 0; i < n; i++) { s += i; }
        require(s > 0, "positive");
      }
    })");
  ASSERT_TRUE(contract.ok()) << contract.status().ToString();
  const auto& body = *contract.value()->functions[0]->body;
  EXPECT_EQ(body.stmts[0]->kind, StmtKind::kIf);
  EXPECT_EQ(body.stmts[1]->kind, StmtKind::kWhile);
  EXPECT_EQ(body.stmts[2]->kind, StmtKind::kFor);
  EXPECT_EQ(body.stmts[3]->kind, StmtKind::kRequire);
}

TEST(ParserTest, SelfdestructStatement) {
  auto contract = ParseContract(R"(
    contract C {
      function kill() public { selfdestruct(msg.sender); }
    })");
  ASSERT_TRUE(contract.ok());
  EXPECT_EQ(contract.value()->functions[0]->body->stmts[0]->kind,
            StmtKind::kSelfdestruct);
}

TEST(ParserTest, RejectsDuplicateConstructor) {
  EXPECT_FALSE(ParseContract(R"(
    contract C {
      constructor() public {}
      constructor() public {}
    })")
                   .ok());
}

TEST(ParserTest, RejectsMissingSemicolon) {
  EXPECT_FALSE(ParseContract("contract C { uint256 x = 1 }").ok());
}

TEST(ParserTest, RejectsUnknownMember) {
  EXPECT_FALSE(ParseContract(R"(
    contract C { function f() public { uint256 x = msg.gas; } })")
                   .ok());
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  auto result = ParseContract("contract C {\n  uint256 x =\n}");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos)
      << result.status().ToString();
}

// ------------------------------------------------------------------- Sema --

std::unique_ptr<ContractDecl> ParseOk(std::string_view src) {
  auto result = ParseContract(src);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : nullptr;
}

TEST(SemaTest, AssignsStorageSlotsInOrder) {
  auto c = ParseOk(R"(
    contract C {
      uint256 a;
      address b;
      mapping(address => uint256) m;
      uint256 d;
    })");
  ASSERT_TRUE(AnalyzeContract(c.get()).ok());
  EXPECT_EQ(c->state_vars[0].slot, 0);
  EXPECT_EQ(c->state_vars[1].slot, 1);
  EXPECT_EQ(c->state_vars[2].slot, 2);
  EXPECT_EQ(c->state_vars[3].slot, 3);
}

TEST(SemaTest, AssignsParamAndLocalOffsets) {
  auto c = ParseOk(R"(
    contract C {
      function f(uint256 a, address b) public {
        uint256 x = a;
        uint256 y = x;
      }
    })");
  ASSERT_TRUE(AnalyzeContract(c.get()).ok());
  const auto& fn = *c->functions[0];
  EXPECT_EQ(fn.params[0].mem_offset, kLocalsBase);
  EXPECT_EQ(fn.params[1].mem_offset, kLocalsBase + 32);
  const auto& x = static_cast<const VarDeclStmt&>(*fn.body->stmts[0]);
  const auto& y = static_cast<const VarDeclStmt&>(*fn.body->stmts[1]);
  EXPECT_EQ(x.mem_offset, kLocalsBase + 64);
  EXPECT_EQ(y.mem_offset, kLocalsBase + 96);
}

TEST(SemaTest, ResolvesIdentifiers) {
  auto c = ParseOk(R"(
    contract C {
      uint256 s;
      function f(uint256 p) public {
        uint256 l = s + p;
      }
    })");
  ASSERT_TRUE(AnalyzeContract(c.get()).ok());
  const auto& decl =
      static_cast<const VarDeclStmt&>(*c->functions[0]->body->stmts[0]);
  const auto& add = static_cast<const BinaryExpr&>(*decl.init);
  const auto& s_ref = static_cast<const IdentExpr&>(*add.lhs);
  const auto& p_ref = static_cast<const IdentExpr&>(*add.rhs);
  EXPECT_EQ(s_ref.ref, RefKind::kStateVar);
  EXPECT_EQ(s_ref.slot, 0);
  EXPECT_EQ(p_ref.ref, RefKind::kParam);
}

TEST(SemaTest, RejectsUnknownIdentifier) {
  auto c = ParseOk("contract C { function f() public { x = 1; } }");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, RejectsTypeMismatch) {
  auto c = ParseOk(R"(
    contract C {
      address a;
      function f() public { a = 5; }
    })");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, RejectsNonBoolCondition) {
  auto c = ParseOk(R"(
    contract C {
      function f(uint256 n) public { if (n) { } }
    })");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, RejectsArithmeticOnAddresses) {
  auto c = ParseOk(R"(
    contract C {
      function f(address a, address b) public {
        uint256 x = a + b;
      }
    })");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, RejectsMappingKeyMismatch) {
  auto c = ParseOk(R"(
    contract C {
      mapping(address => uint256) m;
      function f(uint256 k) public { m[k] = 1; }
    })");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, RejectsWholeMappingAssignment) {
  auto c = ParseOk(R"(
    contract C {
      mapping(address => uint256) m;
      mapping(address => uint256) n;
      function f() public { m = n; }
    })");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, RejectsShadowing) {
  auto c = ParseOk(R"(
    contract C {
      uint256 x;
      function f() public { uint256 x = 1; }
    })");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

// --------------------------------------------------------- Nesting bound --

/// `<expr>` assigned inside a function body: the body block and the
/// assignment statement sit two levels above the expression.
std::string AssignInBody(const std::string& target, const std::string& expr) {
  return "contract C { bool b; uint256 n; function f() public { " + target +
         " = " + expr + "; } }";
}
constexpr int kBodyLevels = 2;

/// `!!…!true`: `nots` unary nodes over one leaf.
std::string Nots(int nots) { return std::string(nots, '!') + "true"; }

/// `1+1+…+1`: a left-deep chain of `terms - 1` binary nodes over one leaf.
std::string Ones(int terms) {
  std::string expr = "1";
  expr.reserve(2 * static_cast<size_t>(terms));
  for (int i = 1; i < terms; ++i) expr += "+1";
  return expr;
}

void ExpectTooDeep(const std::string& source) {
  auto parsed = ParseContract(source);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("nesting deeper than"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(ParserTest, UnaryNestingAtTheBoundCompiles) {
  const int nots = kMaxNestingDepth - kBodyLevels - 1;
  auto compiled = CompileContract(AssignInBody("b", Nots(nots)));
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  ExpectTooDeep(AssignInBody("b", Nots(nots + 1)));
}

TEST(ParserTest, BinaryChainAtTheBoundCompiles) {
  const int terms = kMaxNestingDepth - kBodyLevels;
  auto compiled = CompileContract(AssignInBody("n", Ones(terms)));
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  ExpectTooDeep(AssignInBody("n", Ones(terms + 1)));
}

TEST(ParserTest, HugeNestingIsAParseErrorNotACrash) {
  // The two shapes that overflow the stack without the bound: 200 KB of
  // unary operators, and an 800 KB binary chain the parser builds in a
  // loop.
  ExpectTooDeep(AssignInBody("b", Nots(200000)));
  ExpectTooDeep(AssignInBody("n", Ones(400000)));
  // Every other kind of nesting is bounded the same way.
  const int deep = 100000;
  ExpectTooDeep(AssignInBody(
      "n", std::string(deep, '(') + "1" + std::string(deep, ')')));
  std::string index;
  for (int i = 0; i < deep; ++i) index += "m[";
  ExpectTooDeep("contract C { mapping(uint256 => uint256) m; uint256 n; "
                "function f() public { n = " +
                index + "n" + std::string(deep, ']') + "; } }");
  ExpectTooDeep("contract C { function f() public " + std::string(deep, '{') +
                std::string(deep, '}') + " }");
  std::string ifs;
  for (int i = 0; i < deep; ++i) ifs += "if (true) ";
  ExpectTooDeep("contract C { function f() public { " + ifs + "{} } }");
}

TEST(SemaTest, RejectsDuplicateFunctions) {
  auto c = ParseOk(R"(
    contract C {
      function f() public {}
      function f() public {}
    })");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, RejectsReturnValueInVoidFunction) {
  auto c = ParseOk("contract C { function f() public { return 5; } }");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, AllowsEqualityOnAddressesAndBools) {
  auto c = ParseOk(R"(
    contract C {
      address owner;
      bool flag;
      function f() public {
        require(msg.sender == owner);
        require(flag == true);
      }
    })");
  EXPECT_TRUE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, CompoundAssignRequiresUint) {
  auto c = ParseOk(R"(
    contract C {
      address a;
      function f(address b) public { a += b; }
    })");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, MsgValueComparableToEtherLiterals) {
  auto c = ParseOk(R"(
    contract C {
      function f() public payable {
        require(msg.value == 88 finney);
      }
    })");
  EXPECT_TRUE(AnalyzeContract(c.get()).ok());
}

}  // namespace
}  // namespace mufuzz::lang
