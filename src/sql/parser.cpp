#include "sql/parser.h"

#include <charconv>
#include <optional>
#include <string_view>

#include "columnar/types.h"
#include "sql/lexer.h"

namespace pocs::sql {

namespace {

// A whole numeric token, or nullopt when it is malformed or out of range.
// std::from_chars never throws, unlike std::stoll/std::stod, so a bad
// literal is an InvalidArgument instead of an uncaught exception.
template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  auto [p, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || p != end) return std::nullopt;
  return value;
}

// Expression grammar (precedence climbing):
//   or_expr     := and_expr (OR and_expr)*
//   and_expr    := not_expr (AND not_expr)*
//   not_expr    := NOT not_expr | predicate
//   predicate   := additive [ (cmp additive) | (BETWEEN additive AND additive) ]
//   additive    := multiplicative (('+'|'-') multiplicative)*
//   multiplicative := unary (('*'|'/'|'%') unary)*
//   unary       := '-' unary | primary
//   primary     := literal | DATE 'str' | INTERVAL 'str' DAY | func '(' args ')'
//                | column | '(' or_expr ')' | '*'
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> ParseQuery() {
    Query query;
    POCS_RETURN_NOT_OK(ExpectKeyword("select"));
    // select list
    while (true) {
      SelectItem item;
      POCS_ASSIGN_OR_RETURN(item.expr, ParseOr());
      if (AcceptKeyword("as")) {
        POCS_ASSIGN_OR_RETURN(std::string alias, ExpectIdentifier());
        item.alias = alias;
      } else if (Peek().kind == TokenKind::kIdentifier &&
                 !IsKeyword(Peek().text)) {
        item.alias = Peek().text;
        Advance();
      }
      query.items.push_back(std::move(item));
      if (!AcceptOperator(",")) break;
    }
    POCS_RETURN_NOT_OK(ExpectKeyword("from"));
    POCS_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    if (AcceptOperator(".")) {
      query.schema_name = name;
      POCS_ASSIGN_OR_RETURN(query.table_name, ExpectIdentifier());
    } else {
      query.table_name = name;
    }
    // [INNER] JOIN dim ON col = col — a single equi-join over unqualified,
    // globally unique column names (the engine validates uniqueness).
    bool has_join = AcceptKeyword("inner");
    if (has_join) {
      POCS_RETURN_NOT_OK(ExpectKeyword("join"));
    } else {
      has_join = AcceptKeyword("join");
    }
    if (has_join) {
      POCS_ASSIGN_OR_RETURN(query.join_table_name, ExpectIdentifier());
      POCS_RETURN_NOT_OK(ExpectKeyword("on"));
      POCS_ASSIGN_OR_RETURN(query.join_on_left, ExpectIdentifier());
      POCS_RETURN_NOT_OK(ExpectOperator("="));
      POCS_ASSIGN_OR_RETURN(query.join_on_right, ExpectIdentifier());
    }
    if (AcceptKeyword("where")) {
      POCS_ASSIGN_OR_RETURN(query.where, ParseOr());
    }
    if (AcceptKeyword("group")) {
      POCS_RETURN_NOT_OK(ExpectKeyword("by"));
      while (true) {
        POCS_ASSIGN_OR_RETURN(AstExprPtr key, ParseOr());
        query.group_by.push_back(std::move(key));
        if (!AcceptOperator(",")) break;
      }
    }
    if (AcceptKeyword("having")) {
      POCS_ASSIGN_OR_RETURN(query.having, ParseOr());
    }
    if (AcceptKeyword("order")) {
      POCS_RETURN_NOT_OK(ExpectKeyword("by"));
      while (true) {
        OrderItem item;
        POCS_ASSIGN_OR_RETURN(item.expr, ParseOr());
        if (AcceptKeyword("desc")) {
          item.ascending = false;
        } else {
          AcceptKeyword("asc");
        }
        query.order_by.push_back(std::move(item));
        if (!AcceptOperator(",")) break;
      }
    }
    if (AcceptKeyword("limit")) {
      if (Peek().kind != TokenKind::kInteger) {
        return Error("LIMIT expects an integer");
      }
      query.limit = ParseNumber<int64_t>(Peek().text);
      if (!query.limit) return Error("LIMIT out of range");
      Advance();
    }
    AcceptOperator(";");
    if (Peek().kind != TokenKind::kEnd) {
      return Error("unexpected trailing input '" + Peek().raw + "'");
    }
    return query;
  }

  Result<AstExprPtr> ParseStandaloneExpression() {
    POCS_ASSIGN_OR_RETURN(AstExprPtr e, ParseOr());
    AcceptOperator(";");
    if (Peek().kind != TokenKind::kEnd) {
      return Error("unexpected trailing input '" + Peek().raw + "'");
    }
    return e;
  }

 private:
  // ---- token helpers -----------------------------------------------------
  const Token& Peek(size_t ahead = 0) const {
    size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool AcceptKeyword(std::string_view kw) {
    if (Peek().kind == TokenKind::kIdentifier && Peek().text == kw) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!AcceptKeyword(kw)) {
      return Status::InvalidArgument("expected '" + std::string(kw) +
                                     "' near '" + Peek().raw + "' (offset " +
                                     std::to_string(Peek().offset) + ")");
    }
    return Status::OK();
  }
  bool AcceptOperator(std::string_view op) {
    if (Peek().kind == TokenKind::kOperator && Peek().text == op) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectOperator(std::string_view op) {
    if (!AcceptOperator(op)) {
      return Status::InvalidArgument("expected '" + std::string(op) +
                                     "' near '" + Peek().raw + "'");
    }
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Status::InvalidArgument("expected identifier near '" +
                                     Peek().raw + "'");
    }
    std::string name = Peek().text;
    Advance();
    return name;
  }
  Status Error(std::string message) const {
    return Status::InvalidArgument(std::move(message) + " (offset " +
                                   std::to_string(Peek().offset) + ")");
  }

  static bool IsKeyword(std::string_view word) {
    static const char* kKeywords[] = {
        "select", "from",  "where", "group", "by",    "order", "limit",
        "and",    "or",    "not",   "as",    "asc",   "desc",  "between",
        "date",   "interval", "day", "in",   "is",    "null",  "having",
        "join",   "inner", "on"};
    for (const char* kw : kKeywords) {
      if (word == kw) return true;
    }
    return false;
  }

  static AstExprPtr MakeBinary(BinaryOp op, AstExprPtr lhs, AstExprPtr rhs) {
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kBinary;
    e->binary_op = op;
    e->args.push_back(std::move(lhs));
    e->args.push_back(std::move(rhs));
    return e;
  }

  // ---- expression grammar --------------------------------------------------
  Result<AstExprPtr> ParseOr() {
    POCS_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseAnd());
    while (AcceptKeyword("or")) {
      POCS_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseAnd());
      lhs = MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<AstExprPtr> ParseAnd() {
    POCS_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseNot());
    while (AcceptKeyword("and")) {
      POCS_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseNot());
      lhs = MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<AstExprPtr> ParseNot() {
    if (AcceptKeyword("not")) {
      POCS_ASSIGN_OR_RETURN(AstExprPtr arg, ParseNot());
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kUnary;
      e->unary_op = UnaryOp::kNot;
      e->args.push_back(std::move(arg));
      return e;
    }
    return ParsePredicate();
  }

  Result<AstExprPtr> ParsePredicate() {
    POCS_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseAdditive());
    // expr IS [NOT] NULL
    if (AcceptKeyword("is")) {
      bool negated = AcceptKeyword("not");
      POCS_RETURN_NOT_OK(ExpectKeyword("null"));
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kFuncCall;
      e->name = negated ? "$is_not_null" : "$is_null";
      e->args.push_back(std::move(lhs));
      return e;
    }
    // expr [NOT] IN (v1, v2, ...) — desugared to an OR chain of equality.
    {
      bool negated = false;
      bool is_in = false;
      if (Peek().kind == TokenKind::kIdentifier && Peek().text == "not" &&
          Peek(1).kind == TokenKind::kIdentifier && Peek(1).text == "in") {
        Advance();
        Advance();
        negated = true;
        is_in = true;
      } else if (AcceptKeyword("in")) {
        is_in = true;
      }
      if (is_in) {
        POCS_RETURN_NOT_OK(ExpectOperator("("));
        AstExprPtr chain;
        while (true) {
          POCS_ASSIGN_OR_RETURN(AstExprPtr value, ParseAdditive());
          auto eq = MakeBinary(BinaryOp::kEq, CloneExpr(*lhs), std::move(value));
          chain = chain ? MakeBinary(BinaryOp::kOr, std::move(chain),
                                     std::move(eq))
                        : std::move(eq);
          if (!AcceptOperator(",")) break;
        }
        POCS_RETURN_NOT_OK(ExpectOperator(")"));
        if (negated) {
          auto e = std::make_unique<AstExpr>();
          e->kind = AstExprKind::kUnary;
          e->unary_op = UnaryOp::kNot;
          e->args.push_back(std::move(chain));
          return e;
        }
        return chain;
      }
    }
    if (AcceptKeyword("between")) {
      POCS_ASSIGN_OR_RETURN(AstExprPtr lo, ParseAdditive());
      POCS_RETURN_NOT_OK(ExpectKeyword("and"));
      POCS_ASSIGN_OR_RETURN(AstExprPtr hi, ParseAdditive());
      // Desugar: lhs BETWEEN lo AND hi → lhs >= lo AND lhs <= hi.
      AstExprPtr lhs_copy = CloneExpr(*lhs);
      auto ge = MakeBinary(BinaryOp::kGe, std::move(lhs), std::move(lo));
      auto le = MakeBinary(BinaryOp::kLe, std::move(lhs_copy), std::move(hi));
      return MakeBinary(BinaryOp::kAnd, std::move(ge), std::move(le));
    }
    static const std::pair<const char*, BinaryOp> kCmps[] = {
        {"=", BinaryOp::kEq},  {"<>", BinaryOp::kNe}, {"<=", BinaryOp::kLe},
        {">=", BinaryOp::kGe}, {"<", BinaryOp::kLt},  {">", BinaryOp::kGt}};
    for (const auto& [text, op] : kCmps) {
      if (AcceptOperator(text)) {
        POCS_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseAdditive());
        return MakeBinary(op, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<AstExprPtr> ParseAdditive() {
    POCS_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseMultiplicative());
    while (true) {
      if (AcceptOperator("+")) {
        POCS_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseMultiplicative());
        lhs = MakeBinary(BinaryOp::kAdd, std::move(lhs), std::move(rhs));
      } else if (AcceptOperator("-")) {
        POCS_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseMultiplicative());
        lhs = MakeBinary(BinaryOp::kSub, std::move(lhs), std::move(rhs));
      } else {
        return lhs;
      }
    }
  }

  Result<AstExprPtr> ParseMultiplicative() {
    POCS_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseUnary());
    while (true) {
      BinaryOp op;
      if (AcceptOperator("*")) {
        op = BinaryOp::kMul;
      } else if (AcceptOperator("/")) {
        op = BinaryOp::kDiv;
      } else if (AcceptOperator("%")) {
        op = BinaryOp::kMod;
      } else {
        return lhs;
      }
      POCS_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseUnary());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<AstExprPtr> ParseUnary() {
    if (AcceptOperator("-")) {
      POCS_ASSIGN_OR_RETURN(AstExprPtr arg, ParseUnary());
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kUnary;
      e->unary_op = UnaryOp::kNegate;
      e->args.push_back(std::move(arg));
      return e;
    }
    return ParsePrimary();
  }

  Result<AstExprPtr> ParsePrimary() {
    const Token& token = Peek();
    auto e = std::make_unique<AstExpr>();
    switch (token.kind) {
      case TokenKind::kInteger: {
        e->kind = AstExprKind::kIntLiteral;
        std::optional<int64_t> v = ParseNumber<int64_t>(token.text);
        if (!v) return Error("bad integer literal");
        e->int_value = *v;
        Advance();
        return e;
      }
      case TokenKind::kFloat: {
        e->kind = AstExprKind::kFloatLiteral;
        std::optional<double> v = ParseNumber<double>(token.text);
        if (!v) return Error("bad float literal '" + token.raw + "'");
        e->float_value = *v;
        Advance();
        return e;
      }
      case TokenKind::kString:
        e->kind = AstExprKind::kStringLiteral;
        e->str_value = token.text;
        Advance();
        return e;
      case TokenKind::kOperator:
        if (token.text == "(") {
          Advance();
          POCS_ASSIGN_OR_RETURN(AstExprPtr inner, ParseOr());
          POCS_RETURN_NOT_OK(ExpectOperator(")"));
          return inner;
        }
        if (token.text == "*") {
          e->kind = AstExprKind::kStarLiteral;
          Advance();
          return e;
        }
        return Error("unexpected operator '" + token.raw + "'");
      case TokenKind::kIdentifier: {
        // DATE 'yyyy-mm-dd'
        if (token.text == "date" && Peek(1).kind == TokenKind::kString) {
          Advance();
          POCS_ASSIGN_OR_RETURN(int32_t days, ParseDateString(Peek().text));
          Advance();
          e->kind = AstExprKind::kDateLiteral;
          e->int_value = days;
          return e;
        }
        // INTERVAL '90' DAY
        if (token.text == "interval" && Peek(1).kind == TokenKind::kString) {
          Advance();
          std::optional<int64_t> days = ParseNumber<int64_t>(Peek().text);
          if (!days) return Error("bad INTERVAL day count");
          Advance();
          POCS_RETURN_NOT_OK(ExpectKeyword("day"));
          e->kind = AstExprKind::kIntervalLiteral;
          e->int_value = *days;
          return e;
        }
        std::string name = token.text;
        Advance();
        if (AcceptOperator("(")) {
          e->kind = AstExprKind::kFuncCall;
          e->name = name;
          if (!AcceptOperator(")")) {
            while (true) {
              POCS_ASSIGN_OR_RETURN(AstExprPtr arg, ParseOr());
              e->args.push_back(std::move(arg));
              if (!AcceptOperator(",")) break;
            }
            POCS_RETURN_NOT_OK(ExpectOperator(")"));
          }
          return e;
        }
        e->kind = AstExprKind::kColumnRef;
        e->name = name;
        return e;
      }
      case TokenKind::kEnd:
        return Error("unexpected end of input");
    }
    return Error("unexpected token");
  }

  static Result<int32_t> ParseDateString(const std::string& s) {
    int y, m, d;
    if (std::sscanf(s.c_str(), "%d-%d-%d", &y, &m, &d) != 3 || m < 1 ||
        m > 12 || d < 1 || d > 31) {
      return Status::InvalidArgument("bad date literal '" + s + "'");
    }
    return columnar::DaysFromCivil(y, m, d);
  }

  static AstExprPtr CloneExpr(const AstExpr& e) {
    auto out = std::make_unique<AstExpr>();
    out->kind = e.kind;
    out->name = e.name;
    out->int_value = e.int_value;
    out->float_value = e.float_value;
    out->str_value = e.str_value;
    out->binary_op = e.binary_op;
    out->unary_op = e.unary_op;
    for (const auto& arg : e.args) out->args.push_back(CloneExpr(*arg));
    return out;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Query> ParseQuery(std::string_view sql) {
  POCS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(std::move(tokens));
  return parser.ParseQuery();
}

Result<AstExprPtr> ParseExpression(std::string_view sql) {
  POCS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStandaloneExpression();
}

}  // namespace pocs::sql
