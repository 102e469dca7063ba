#include "regex/glob.h"

#include "regex/ast.h"

namespace sash::regex {

// Memoization hooks implemented by the pattern cache in regex.cc.
std::optional<Regex> PatternCacheLookupGlob(std::string_view pattern);
// Caches the language of `node` under `pattern` and returns it.
Regex PatternCacheStoreGlob(std::string_view pattern, NodePtr node);

Regex GlobLanguage(std::string_view pattern) {
  if (std::optional<Regex> cached = PatternCacheLookupGlob(pattern)) {
    return *std::move(cached);
  }
  std::vector<NodePtr> parts;
  size_t i = 0;
  while (i < pattern.size()) {
    char c = pattern[i];
    if (c == '*') {
      parts.push_back(MakeStar(MakeChars(CharSet::All())));
      ++i;
    } else if (c == '?') {
      parts.push_back(MakeChars(CharSet::All()));
      ++i;
    } else if (c == '\\' && i + 1 < pattern.size()) {
      parts.push_back(MakeChars(CharSet::Of(static_cast<unsigned char>(pattern[i + 1]))));
      i += 2;
    } else if (c == '[') {
      // Scan the class; fall back to a literal '[' when unterminated.
      size_t j = i + 1;
      bool negate = false;
      if (j < pattern.size() && (pattern[j] == '!' || pattern[j] == '^')) {
        negate = true;
        ++j;
      }
      CharSet set;
      bool first = true;
      bool closed = false;
      while (j < pattern.size()) {
        char cc = pattern[j];
        if (cc == ']' && !first) {
          closed = true;
          ++j;
          break;
        }
        first = false;
        unsigned char lo = static_cast<unsigned char>(cc);
        if (cc == '\\' && j + 1 < pattern.size()) {
          lo = static_cast<unsigned char>(pattern[++j]);
        }
        if (j + 2 < pattern.size() && pattern[j + 1] == '-' && pattern[j + 2] != ']') {
          set.AddRange(lo, static_cast<unsigned char>(pattern[j + 2]));
          j += 3;
        } else {
          set.Add(lo);
          ++j;
        }
      }
      if (closed) {
        parts.push_back(MakeChars(negate ? set.Complement() : set));
        i = j;
      } else {
        parts.push_back(MakeChars(CharSet::Of('[')));
        ++i;
      }
    } else {
      parts.push_back(MakeChars(CharSet::Of(static_cast<unsigned char>(c))));
      ++i;
    }
  }
  return PatternCacheStoreGlob(pattern, MakeConcat(std::move(parts)));
}

}  // namespace sash::regex
