// Regex: the public facade of the regular-language engine. A Regex is an
// immutable regular *language* (not a searcher): Matches() tests whole-string
// membership, and the algebra (Intersect/Union/Complement/IncludedIn/...)
// operates on languages. This is exactly the notion the paper's regular types
// need — a type is a language of lines, and subtyping is language inclusion.
//
// Construction never throws: FromPattern returns std::nullopt on a malformed
// pattern and records the error for retrieval.
#ifndef SASH_REGEX_REGEX_H_
#define SASH_REGEX_REGEX_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "regex/ast.h"
#include "regex/dfa.h"

namespace sash::obs {
class Registry;
}  // namespace sash::obs

namespace sash::regex {

// Process-wide memoization of compiled patterns (FromPattern,
// FromSearchPattern, and glob.h's GlobLanguage). A cache hit returns a copy
// of the cached Regex, which shares its lazily-built minimal DFA — so each
// distinct pattern is parsed once and determinized at most once per process.
// Entries are immutable (a pattern IS its language), so there is no
// invalidation: the cache only grows, capped at a fixed entry count after
// which new patterns compile uncached. It is always on; Clear() gives a
// bench or test a cold cache.
//
// Concurrency: lookups are lock-free. Entries live in append-only slabs and
// are reached through an open-addressed index published via release stores
// (util/append_table.h, shared with the string interner), so parallel batch
// workers — whose pattern working sets converge after the first few
// scripts — hit the cache without ever touching a mutex. Only a genuine insertion takes the writer
// lock (the "regex.pattern_cache" probe site), and insertion is rare by
// construction: it happens once per distinct pattern per process, right
// after an expensive parse.
class PatternCache {
 public:
  static uint64_t Hits();
  static uint64_t Misses();
  static size_t Size();
  static void Clear();
};

// Hash-consing and algebra memo for the lifetime of one analysis on this
// thread. While a scope is open:
//   - an AST-backed Regex whose display pattern (its ToPattern rendering)
//     was already seen shares that regex's lazily built minimal DFA.
//     FromPattern results display their source text instead and do not
//     join; the pattern cache, which never holds a shared DFA, already
//     gives each source text one DFA;
//   - Literal(s) is cached by s;
//   - Intersect, Union, Concat, Complement, Star and IncludedIn are memoized,
//     keyed on the operation and the operands' DFA identity (plus their AST
//     identity where the result is built from the AST). Every entry holds
//     its operands, so a key's addresses can never be reused by a different
//     object while the entry lives.
// A ToPattern rendering determines its language and the character classes
// its DFA is built over, and every minimal DFA is numbered canonically, so a
// shared or memoized result is byte-for-byte the one a direct computation
// would produce. Scopes nest (an inner scope joins the open memo); the
// outermost one frees the memo when it closes. Outside a scope every
// operation computes directly.
class AlgebraScope {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t languages = 0;  // Distinct DFAs this scope created or adopted.

    // Mirrors the counters into the registry under "regex.memo.*".
    void PublishTo(obs::Registry* registry) const;
  };

  AlgebraScope();
  ~AlgebraScope();
  AlgebraScope(const AlgebraScope&) = delete;
  AlgebraScope& operator=(const AlgebraScope&) = delete;

  // Counters of the memo this scope belongs to.
  Stats stats() const;
};

class Regex {
 public:
  // Parses an anchored (whole-string) pattern. Returns nullopt on error;
  // *error_out (if given) receives a description.
  static std::optional<Regex> FromPattern(std::string_view pattern,
                                          std::string* error_out = nullptr);

  // grep-style *search* semantics: the language of strings containing a match
  // of `pattern`. Honors ^/$ anchors: "^desc" -> desc.*, "x$" -> .*x, plain
  // "x" -> .*x.* .
  static std::optional<Regex> FromSearchPattern(std::string_view pattern,
                                                std::string* error_out = nullptr);

  // The language containing exactly `text`.
  static Regex Literal(std::string_view text);

  // ".*" — every string without a newline (the `any` line type). This and
  // the two below are process-wide constants sharing one DFA.
  static Regex AnyLine();

  // The empty language and the empty-string language.
  static Regex Nothing();
  static Regex Epsilon();

  // Direct construction from an AST (used by type-level operations).
  static Regex FromAst(NodePtr node);

  // Whole-string membership.
  bool Matches(std::string_view input) const;

  // Language algebra. Results carry a synthesized display pattern.
  Regex Intersect(const Regex& other) const;
  Regex Union(const Regex& other) const;
  Regex Concat(const Regex& other) const;
  Regex Complement() const;
  Regex Star() const;

  bool IsEmptyLanguage() const;
  bool IsUniversal() const;
  bool IncludedIn(const Regex& other) const;
  bool EquivalentTo(const Regex& other) const;

  // Shortest member of the language, if any.
  std::optional<std::string> Witness() const;
  std::vector<std::string> Samples(size_t limit) const;

  // Display pattern (the source pattern, or a synthesized one for derived
  // languages — complements are shown as "!(p)" since they have no ERE form).
  const std::string& pattern() const { return pattern_; }

  const NodePtr& ast() const { return ast_; }  // Null for complement-derived.

  // The backing minimal DFA (built lazily, cached).
  const Dfa& dfa() const;

  size_t DfaStates() const { return static_cast<size_t>(dfa().NumStates()); }

 private:
  friend class AlgebraScope;
  friend std::optional<Regex> PatternCacheLookupGlob(std::string_view pattern);
  friend Regex PatternCacheStoreGlob(std::string_view pattern, NodePtr node);
  struct Memo;

  Regex(std::string pattern, NodePtr ast);
  Regex(std::string pattern, Dfa dfa);

  // The calling thread's open memo, or null outside every AlgebraScope.
  static Memo*& CurrentMemo();

  // Inside an AlgebraScope: `regex` adopts the DFA of an earlier regex with
  // the same display pattern, or registers its own. `regex` must be
  // AST-backed and display ToPattern(ast): only that rendering determines
  // the language. `count_probe` counts the lookup as a memo hit or miss;
  // internal calls on behalf of an already counted operation pass false.
  static Regex Shared(Regex regex, bool count_probe = true);

  // Shared(), uncounted, for a regex built from `node`.
  static Regex SharedFromAst(NodePtr node);

  // Runs `compute` through the memo when one is open; `by_ast` adds the
  // operands' AST identity to the key for results built from the AST.
  template <typename Compute>
  Regex Memoized(int op, const Regex* other, bool by_ast, Compute&& compute) const;

  std::string pattern_;
  NodePtr ast_;  // May be null when the language only exists as a DFA.
  // Shared so copies of a Regex reuse one lazily-built DFA.
  struct LazyDfa;
  std::shared_ptr<LazyDfa> lazy_;
};

}  // namespace sash::regex

#endif  // SASH_REGEX_REGEX_H_
