#include "syntax/arith.h"

#include <cctype>

namespace sash::syntax {

namespace {

// Arithmetic happens on the unsigned image, where wrap is defined.
uint64_t U(int64_t v) { return static_cast<uint64_t>(v); }

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

// Reads decimal digits at s[*i...] with wrap; nullopt when there are none.
std::optional<int64_t> Digits(std::string_view s, size_t* i) {
  if (*i >= s.size() || !IsDigit(s[*i])) {
    return std::nullopt;
  }
  uint64_t v = 0;
  while (*i < s.size() && IsDigit(s[*i])) {
    v = v * 10 + static_cast<uint64_t>(s[(*i)++] - '0');
  }
  return static_cast<int64_t>(v);
}

class Parser {
 public:
  Parser(std::string_view s, const ArithLookup& lookup) : s_(s), lookup_(lookup) {}

  std::optional<int64_t> Run() {
    std::optional<int64_t> v = Expr();
    SkipWs();
    return i_ == s_.size() ? v : std::nullopt;
  }

 private:
  // Nesting bound, so hostile input cannot exhaust the stack.
  static constexpr int kMaxDepth = 256;

  void SkipWs() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  // Consumes and returns the next character when it is one of `ops`.
  char Op(std::string_view ops) {
    SkipWs();
    return i_ < s_.size() && ops.find(s_[i_]) != std::string_view::npos ? s_[i_++] : '\0';
  }

  std::optional<int64_t> Expr() {
    std::optional<int64_t> v = Term();
    for (char op; v.has_value() && (op = Op("+-")) != '\0';) {
      std::optional<int64_t> rhs = Term();
      if (!rhs.has_value()) {
        return std::nullopt;
      }
      v = static_cast<int64_t>(op == '+' ? U(*v) + U(*rhs) : U(*v) - U(*rhs));
    }
    return v;
  }
  std::optional<int64_t> Term() {
    std::optional<int64_t> v = Unary();
    for (char op; v.has_value() && (op = Op("*/%")) != '\0';) {
      std::optional<int64_t> rhs = Unary();
      if (!rhs.has_value() || (op != '*' && *rhs == 0)) {
        return std::nullopt;
      }
      if (op == '*') {
        v = static_cast<int64_t>(U(*v) * U(*rhs));
      } else if (*rhs == -1) {  // The one quotient that can overflow.
        v = op == '/' ? static_cast<int64_t>(0 - U(*v)) : 0;
      } else {
        v = op == '/' ? *v / *rhs : *v % *rhs;
      }
    }
    return v;
  }
  std::optional<int64_t> Unary() {
    if (++depth_ > kMaxDepth) {
      return std::nullopt;
    }
    std::optional<int64_t> v = Primary();
    --depth_;
    return v;
  }
  std::optional<int64_t> Primary() {
    if (Op("-") != '\0') {
      std::optional<int64_t> v = Unary();
      return v.has_value() ? std::optional<int64_t>(static_cast<int64_t>(0 - U(*v))) : v;
    }
    if (Op("(") != '\0') {
      std::optional<int64_t> v = Expr();
      return Op(")") != '\0' ? v : std::nullopt;
    }
    if (i_ < s_.size() && s_[i_] == '$') {
      ++i_;
    }
    if (i_ < s_.size() && IsDigit(s_[i_])) {
      return Digits(s_, &i_);
    }
    size_t start = i_;  // A name: digits were taken above, so none leads.
    while (i_ < s_.size() && (std::isalnum(static_cast<unsigned char>(s_[i_])) || s_[i_] == '_')) {
      ++i_;
    }
    return i_ > start ? lookup_(s_.substr(start, i_ - start)) : std::nullopt;
  }

  std::string_view s_;
  const ArithLookup& lookup_;
  size_t i_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<int64_t> EvalArith(std::string_view expr, const ArithLookup& lookup) {
  return Parser(expr, lookup).Run();
}

std::optional<int64_t> ParseArithInt(std::string_view text) {
  size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  const bool negative = i < text.size() && text[i] == '-';
  if (i < text.size() && (text[i] == '-' || text[i] == '+')) {
    ++i;
  }
  std::optional<int64_t> v = Digits(text, &i);
  if (!v.has_value() || i != text.size()) {
    return std::nullopt;
  }
  return negative ? static_cast<int64_t>(0 - U(*v)) : *v;
}

}  // namespace sash::syntax
