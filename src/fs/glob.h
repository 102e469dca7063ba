// Shell glob matching (fnmatch semantics over one path component) plus
// pathname expansion against a FileSystem. Used by the runtime monitor to
// execute `rm -fr "$STEAMROOT"/*` faithfully, and by case-pattern matching.
#ifndef SASH_FS_GLOB_H_
#define SASH_FS_GLOB_H_

#include <string>
#include <string_view>
#include <vector>

namespace sash::fs {

class FileSystem;

// fnmatch-style match of a single pattern against a single string:
// '*' any run (not crossing '/' when `pathname` matching is done by caller
// per-component), '?' one char, '[...]' classes with ranges and '!'/'^'
// negation, '\' escapes. Whole-string semantics.
bool GlobMatch(std::string_view pattern, std::string_view text);

// POSIX pattern removal on a concrete string: ${value%pattern} (suffix,
// smallest), ${value%%pattern} (suffix, largest), ${value#pattern} (prefix,
// smallest), ${value##pattern} (prefix, largest). No match: `value` unchanged.
std::string RemovePattern(const std::string& value, std::string_view pattern, bool suffix,
                          bool largest);

// True when the pattern contains an unescaped glob metacharacter.
bool HasGlobChars(std::string_view pattern);

// Expands `pattern` (absolute or cwd-relative) against the file system.
// Follows shell rules: per-component matching, a pattern with no matches
// expands to itself (POSIX default, the behavior that makes `rm -rf $d/*`
// dangerous), dotfiles require an explicit leading dot.
std::vector<std::string> ExpandGlob(const FileSystem& fs, std::string_view pattern,
                                    std::string_view cwd);

}  // namespace sash::fs

#endif  // SASH_FS_GLOB_H_
