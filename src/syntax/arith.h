// Shell arithmetic ($((...))), evaluated once for both semantics: the
// concrete interpreter and the symbolic evaluator differ only in how a
// variable's value is looked up. The grammar is + - * / % with the usual
// precedence, parentheses, unary minus, decimal literals and variable names
// (optionally $-prefixed). Overflow has one defined behaviour: 64-bit
// two's-complement wrap, literals included, so INT64_MIN / -1 is INT64_MIN
// and INT64_MIN % -1 is 0.
#ifndef SASH_SYNTAX_ARITH_H_
#define SASH_SYNTAX_ARITH_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

namespace sash::syntax {

// A variable's integer value, or nullopt when it is unknown.
using ArithLookup = std::function<std::optional<int64_t>(std::string_view name)>;

// nullopt when a variable is unknown, the expression is malformed, or it
// divides by zero.
std::optional<int64_t> EvalArith(std::string_view expr, const ArithLookup& lookup);

// A variable's value as an operand: optional leading whitespace and sign,
// then decimal digits to the end, wrapping like a literal.
std::optional<int64_t> ParseArithInt(std::string_view text);

}  // namespace sash::syntax

#endif  // SASH_SYNTAX_ARITH_H_
