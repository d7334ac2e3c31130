// Tests for the SQL frontend: lexer, parser, AST printing, and the
// paper's three workload queries.
#include <gtest/gtest.h>

#include "columnar/types.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "workloads/deepwater.h"
#include "workloads/laghos.h"
#include "workloads/tpch.h"

namespace pocs::sql {
namespace {

TEST(LexerTest, TokenKinds) {
  auto tokens = Lex("SELECT x, 42 FROM t WHERE y >= 3.5 AND s = 'N'");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 13u);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "select");  // lower-cased
  EXPECT_EQ((*tokens)[0].raw, "SELECT");
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kInteger);
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
}

TEST(LexerTest, OperatorsAndComments) {
  auto tokens = Lex("a <= b -- trailing comment\n <> c != d");
  ASSERT_TRUE(tokens.ok());
  std::vector<std::string> ops;
  for (const auto& t : *tokens) {
    if (t.kind == TokenKind::kOperator) ops.push_back(t.text);
  }
  EXPECT_EQ(ops, (std::vector<std::string>{"<=", "<>", "<>"}));
}

TEST(LexerTest, StringEscapes) {
  auto tokens = Lex("'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "it's");
}

TEST(LexerTest, UnterminatedStringRejected) {
  EXPECT_FALSE(Lex("'oops").ok());
}

TEST(LexerTest, ScientificFloats) {
  auto tokens = Lex("1.5e-3 2E9");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kFloat);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kFloat);
}

TEST(ParserTest, SimpleSelect) {
  auto query = ParseQuery("SELECT a, b FROM t");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->items.size(), 2u);
  EXPECT_EQ(query->table_name, "t");
  EXPECT_EQ(query->items[0].expr->name, "a");
  EXPECT_FALSE(query->where);
}

TEST(ParserTest, QualifiedTableName) {
  auto query = ParseQuery("SELECT a FROM myschema.mytable");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->schema_name, "myschema");
  EXPECT_EQ(query->table_name, "mytable");
}

TEST(ParserTest, AliasesWithAndWithoutAs) {
  auto query = ParseQuery("SELECT a AS x, b y FROM t");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(*query->items[0].alias, "x");
  EXPECT_EQ(*query->items[1].alias, "y");
}

TEST(ParserTest, WherePrecedence) {
  auto query = ParseQuery("SELECT a FROM t WHERE a > 1 AND b < 2 OR c = 3");
  ASSERT_TRUE(query.ok());
  // OR binds loosest: ((a>1 AND b<2) OR c=3)
  EXPECT_EQ(query->where->ToString(), "(((a > 1) AND (b < 2)) OR (c = 3))");
}

TEST(ParserTest, BetweenDesugars) {
  auto query = ParseQuery("SELECT a FROM t WHERE x BETWEEN 0.8 AND 3.2");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->where->ToString(), "((x >= 0.8) AND (x <= 3.2))");
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto expr = ParseExpression("a + b * c % 2 - d / e");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->ToString(), "((a + ((b * c) % 2)) - (d / e))");
}

TEST(ParserTest, UnaryMinusAndNot) {
  auto expr = ParseExpression("NOT a > -5");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->ToString(), "NOT (a > -5)");
}

TEST(ParserTest, FunctionCalls) {
  auto query = ParseQuery(
      "SELECT min(x), COUNT(*), sum(a * b) FROM t GROUP BY g");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->items[0].expr->kind, AstExprKind::kFuncCall);
  EXPECT_EQ(query->items[0].expr->name, "min");
  EXPECT_EQ(query->items[1].expr->args[0]->kind, AstExprKind::kStarLiteral);
  EXPECT_EQ(query->group_by.size(), 1u);
}

TEST(ParserTest, DateAndIntervalLiterals) {
  auto expr = ParseExpression("shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY");
  ASSERT_TRUE(expr.ok()) << expr.status();
  std::string s = (*expr)->ToString();
  EXPECT_NE(s.find("DATE '1998-12-01'"), std::string::npos);
  EXPECT_NE(s.find("INTERVAL '90' DAY"), std::string::npos);
}

TEST(ParserTest, OrderByLimit) {
  auto query = ParseQuery(
      "SELECT a FROM t ORDER BY a DESC, b ASC, c LIMIT 100");
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->order_by.size(), 3u);
  EXPECT_FALSE(query->order_by[0].ascending);
  EXPECT_TRUE(query->order_by[1].ascending);
  EXPECT_TRUE(query->order_by[2].ascending);
  EXPECT_EQ(*query->limit, 100);
}

TEST(ParserTest, IsNullAndInDesugar) {
  auto expr = ParseExpression("x IS NULL");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->kind, AstExprKind::kFuncCall);
  EXPECT_EQ((*expr)->name, "$is_null");
  expr = ParseExpression("x IS NOT NULL");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->name, "$is_not_null");
  expr = ParseExpression("a IN (1, 2, 3)");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->ToString(), "(((a = 1) OR (a = 2)) OR (a = 3))");
  expr = ParseExpression("a NOT IN (1, 2)");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->ToString(), "NOT ((a = 1) OR (a = 2))");
  EXPECT_FALSE(ParseExpression("a IN ()").ok());
  EXPECT_FALSE(ParseExpression("a IS 5").ok());
}

TEST(ParserTest, HavingClause) {
  auto query = ParseQuery(
      "SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING n > 5 ORDER BY g");
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_NE(query->having, nullptr);
  EXPECT_EQ(query->having->ToString(), "(n > 5)");
  // Round-trips through ToString.
  auto reparsed = ParseQuery(query->ToString());
  ASSERT_TRUE(reparsed.ok()) << query->ToString();
  EXPECT_NE(reparsed->having, nullptr);
}

TEST(ParserTest, TrailingSemicolonOk) {
  EXPECT_TRUE(ParseQuery("SELECT a FROM t;").ok());
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("SELECT FROM t").ok());
  EXPECT_FALSE(ParseQuery("SELECT a").ok());
  EXPECT_FALSE(ParseQuery("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseQuery("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseQuery("SELECT a FROM t extra garbage").ok());
  EXPECT_FALSE(ParseQuery("SELECT a FROM t GROUP a").ok());
}

// Numeric literals that overflow or do not parse are InvalidArgument,
// never an exception escaping ParseQuery.
TEST(ParserTest, BadNumbersAreInvalidArgument) {
  for (const char* sql :
       {"SELECT a FROM t WHERE d > DATE '1998-12-01' - INTERVAL 'x' DAY",
        "SELECT a FROM t WHERE d > DATE '1998-12-01' - "
        "INTERVAL '99999999999999999999' DAY",
        "SELECT a FROM t LIMIT 99999999999999999999",
        "SELECT a FROM t WHERE x < 1e999"}) {
    auto query = ParseQuery(sql);
    ASSERT_FALSE(query.ok()) << sql;
    EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument) << sql;
  }
}

TEST(ParserTest, PaperQueriesParse) {
  auto laghos = ParseQuery(workloads::LaghosQuery());
  ASSERT_TRUE(laghos.ok()) << laghos.status();
  EXPECT_EQ(laghos->items.size(), 5u);
  EXPECT_EQ(laghos->group_by.size(), 1u);
  EXPECT_EQ(*laghos->limit, 100);

  auto deepwater = ParseQuery(workloads::DeepWaterQuery());
  ASSERT_TRUE(deepwater.ok()) << deepwater.status();
  EXPECT_EQ(deepwater->items.size(), 2u);
  EXPECT_FALSE(deepwater->limit);

  auto q1 = ParseQuery(workloads::TpchQ1());
  ASSERT_TRUE(q1.ok()) << q1.status();
  EXPECT_EQ(q1->items.size(), 10u);
  EXPECT_EQ(q1->group_by.size(), 2u);
  EXPECT_EQ(q1->order_by.size(), 2u);
}

TEST(ParserTest, QueryToStringRoundParses) {
  auto query = ParseQuery(workloads::TpchQ1());
  ASSERT_TRUE(query.ok());
  auto reparsed = ParseQuery(query->ToString());
  ASSERT_TRUE(reparsed.ok()) << query->ToString() << "\n" << reparsed.status();
  EXPECT_EQ(reparsed->ToString(), query->ToString());
}

}  // namespace
}  // namespace pocs::sql
