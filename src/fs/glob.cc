#include "fs/glob.h"

#include "fs/filesystem.h"
#include "fs/path.h"

namespace sash::fs {

namespace {

// Matches a bracket class starting at pattern[pi] (pattern[pi] == '[').
// On success sets *next_pi past the class and returns whether `c` matched.
// Returns false via *valid when the class is unterminated.
bool MatchClass(std::string_view pattern, size_t pi, char c, size_t* next_pi, bool* valid) {
  size_t i = pi + 1;
  bool negate = false;
  if (i < pattern.size() && (pattern[i] == '!' || pattern[i] == '^')) {
    negate = true;
    ++i;
  }
  bool matched = false;
  bool first = true;
  while (i < pattern.size()) {
    if (pattern[i] == ']' && !first) {
      *next_pi = i + 1;
      *valid = true;
      return matched != negate;
    }
    first = false;
    char lo = pattern[i];
    if (lo == '\\' && i + 1 < pattern.size()) {
      lo = pattern[++i];
    }
    if (i + 2 < pattern.size() && pattern[i + 1] == '-' && pattern[i + 2] != ']') {
      char hi = pattern[i + 2];
      if (c >= lo && c <= hi) {
        matched = true;
      }
      i += 3;
    } else {
      if (c == lo) {
        matched = true;
      }
      ++i;
    }
  }
  *valid = false;
  return false;
}

bool MatchFrom(std::string_view pattern, size_t pi, std::string_view text, size_t ti) {
  while (pi < pattern.size()) {
    char pc = pattern[pi];
    if (pc == '*') {
      // Collapse consecutive stars, then try all suffixes.
      while (pi < pattern.size() && pattern[pi] == '*') {
        ++pi;
      }
      if (pi == pattern.size()) {
        return true;
      }
      for (size_t k = ti; k <= text.size(); ++k) {
        if (MatchFrom(pattern, pi, text, k)) {
          return true;
        }
      }
      return false;
    }
    if (ti >= text.size()) {
      return false;
    }
    if (pc == '?') {
      ++pi;
      ++ti;
      continue;
    }
    if (pc == '[') {
      size_t next_pi = 0;
      bool valid = false;
      bool matched = MatchClass(pattern, pi, text[ti], &next_pi, &valid);
      if (valid) {
        if (!matched) {
          return false;
        }
        pi = next_pi;
        ++ti;
        continue;
      }
      // Unterminated class: literal '['.
      if (text[ti] != '[') {
        return false;
      }
      ++pi;
      ++ti;
      continue;
    }
    if (pc == '\\' && pi + 1 < pattern.size()) {
      ++pi;
      pc = pattern[pi];
    }
    if (text[ti] != pc) {
      return false;
    }
    ++pi;
    ++ti;
  }
  return ti == text.size();
}

}  // namespace

bool GlobMatch(std::string_view pattern, std::string_view text) {
  return MatchFrom(pattern, 0, text, 0);
}

std::string RemovePattern(const std::string& value, std::string_view pattern, bool suffix,
                          bool largest) {
  size_t n = value.size();
  if (suffix) {
    // Candidate suffixes value[k..n); smallest = largest k.
    if (largest) {
      for (size_t k = 0; k <= n; ++k) {
        if (GlobMatch(pattern, std::string_view(value).substr(k))) {
          return value.substr(0, k);
        }
      }
    } else {
      for (size_t k = n;; --k) {
        if (GlobMatch(pattern, std::string_view(value).substr(k))) {
          return value.substr(0, k);
        }
        if (k == 0) {
          break;
        }
      }
    }
  } else {
    // Candidate prefixes value[0..k).
    if (largest) {
      for (size_t k = n;; --k) {
        if (GlobMatch(pattern, std::string_view(value).substr(0, k))) {
          return value.substr(k);
        }
        if (k == 0) {
          break;
        }
      }
    } else {
      for (size_t k = 0; k <= n; ++k) {
        if (GlobMatch(pattern, std::string_view(value).substr(0, k))) {
          return value.substr(k);
        }
      }
    }
  }
  return value;  // No match: unchanged.
}

bool HasGlobChars(std::string_view pattern) {
  for (size_t i = 0; i < pattern.size(); ++i) {
    char c = pattern[i];
    if (c == '\\') {
      ++i;
      continue;
    }
    if (c == '*' || c == '?' || c == '[') {
      return true;
    }
  }
  return false;
}

std::vector<std::string> ExpandGlob(const FileSystem& fs, std::string_view pattern,
                                    std::string_view cwd) {
  if (!HasGlobChars(pattern)) {
    return {std::string(pattern)};
  }
  const bool absolute = IsAbsolute(pattern);
  std::vector<std::string> parts = SplitPath(pattern);
  // Track the user-visible spelling separately so relative patterns expand to
  // relative results, the way a real shell does.
  struct State {
    std::string real;     // Path used for FS lookups.
    std::string spelled;  // Path reported to the command.
  };
  std::vector<State> states{State{absolute ? "/" : std::string(cwd), absolute ? "/" : ""}};
  for (size_t level = 0; level < parts.size(); ++level) {
    const std::string& comp = parts[level];
    std::vector<State> next;
    for (const State& st : states) {
      if (!HasGlobChars(comp)) {
        std::string real = JoinPath(st.real, comp);
        bool is_last = level + 1 == parts.size();
        bool exists = is_last ? fs.Exists(real) : fs.IsDir(real);
        if (exists) {
          std::string spelled = st.spelled.empty()
                                    ? comp
                                    : (st.spelled == "/" ? "/" + comp : st.spelled + "/" + comp);
          next.push_back(State{std::move(real), std::move(spelled)});
        }
        continue;
      }
      Result<std::vector<std::string>> entries = fs.ListDir(st.real);
      if (!entries.ok()) {
        continue;
      }
      for (const std::string& name : *entries) {
        if (name.front() == '.' && comp.front() != '.') {
          continue;  // Dotfiles need an explicit leading dot.
        }
        if (GlobMatch(comp, name)) {
          std::string spelled = st.spelled.empty()
                                    ? name
                                    : (st.spelled == "/" ? "/" + name : st.spelled + "/" + name);
          next.push_back(State{JoinPath(st.real, name), std::move(spelled)});
        }
      }
    }
    states = std::move(next);
    if (states.empty()) {
      break;
    }
  }
  if (states.empty()) {
    // POSIX: a pattern with no matches is passed through literally — the
    // very behavior that turns `rm -rf "$d"/*` into `rm -rf /*`.
    return {std::string(pattern)};
  }
  std::vector<std::string> out;
  out.reserve(states.size());
  for (State& st : states) {
    out.push_back(std::move(st.spelled));
  }
  return out;
}

}  // namespace sash::fs
