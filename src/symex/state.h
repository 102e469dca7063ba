// Execution state for the symbolic engine: variable store, working directory,
// exit status, symbolic file system, accumulated stdout, and the path
// condition (as human-readable assumptions used in witness notes).
//
// A State is move-only: the copy constructor is private, copy assignment
// is deleted, and `Fork()` is the one deep copy. Every copy is then a visible
// fork at its call site, never a by-product of an initializer list or a
// pass-by-value.
//
// The variable store is keyed by interned symbols and every mutation keeps a
// running 64-bit digest in sync, so `State::Digest()` — the key the merge
// loop compares — costs a handful of integer mixes instead of rendering the
// whole state to a string. Digests hash content (names, values, facts),
// never intern ids, so they are stable across runs and thread schedules.
#ifndef SASH_SYMEX_STATE_H_
#define SASH_SYMEX_STATE_H_

#include <concepts>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "symex/value.h"
#include "symfs/symbolic_fs.h"
#include "syntax/ast.h"
#include "util/hash.h"
#include "util/intern.h"

namespace sash::symex {

// Abstract exit status: a known code or "some code, 0 or nonzero unknown".
struct ExitStatus {
  bool known = true;
  int code = 0;

  static ExitStatus Known(int c) { return ExitStatus{true, c}; }
  static ExitStatus Unknown() { return ExitStatus{false, 0}; }

  bool MustSucceed() const { return known && code == 0; }
  bool MustFail() const { return known && code != 0; }
  bool CanSucceed() const { return !known || code == 0; }
  bool CanFail() const { return !known || code != 0; }
};

// How a value was computed from a variable — enough structure to push test
// refinements back onto the variable (the paper's context-sensitivity: "it
// concludes safety ... by tracking constraints on variable contents,
// including those from conditionals").
struct Provenance {
  std::string var;           // The source variable.
  std::string suffix;        // Literal text appended after the expansion.
  bool canonicalized = false;  // Passed through realpath.
};

struct State {
  using VarMap = std::map<util::Symbol, SymValue>;

  // Keeps only the path-condition notes a diagnostic can show: Evaluator::Emit
  // prints four, then an elision line when a fifth exists.
  static constexpr size_t kMaxAssumptions = 5;

  State() = default;
  State(State&&) = default;
  State& operator=(State&&) = default;
  State& operator=(const State&) = delete;

  // A deep copy for a path that splits off this one.
  State Fork() const { return State(*this); }

  int id = 0;

  SymValue cwd = SymValue::Concrete("/");
  ExitStatus exit;
  symfs::SymbolicFs sfs;

  // Captured standard output (one entry per written line), consumed by
  // command substitution.
  std::vector<SymValue> stdout_lines;
  // Provenance of the last stdout line, when a value-model command (echo of a
  // variable, realpath) produced it — lets `test` refine through
  // substitutions like $(realpath "$STEAMROOT/").
  std::optional<Provenance> stdout_prov;

  // Human-readable path condition, e.g. "assumed `cd` failed"; the first
  // kMaxAssumptions notes only.
  std::vector<std::string> assumptions;

  bool terminated = false;  // `exit` was executed.

  // True when this path assumed some command failed (a forked failure branch
  // or a spec case with nonzero exit). Used by the idempotence criterion to
  // condition on "the first run succeeded".
  bool assumed_failure = false;

  // Visible function definitions (AST owned by the analyzed Program).
  std::map<util::Symbol, const syntax::Command*> functions;

  // ----- variable helpers -----
  // The store is private so every mutation maintains `vars_digest_`; all
  // writes go through Bind/BindMaybeUnset/Unset/RestoreScopeFrom. String
  // overloads intern (the population is bounded by script text).

  bool IsSet(util::Symbol name) const { return vars_.count(name) > 0; }
  bool IsSet(const std::string& name) const {
    auto sym = util::Symbol::Find(name);
    return sym.has_value() && IsSet(*sym);
  }

  bool MaybeUnset(util::Symbol name) const { return maybe_unset_.count(name) > 0; }
  bool MaybeUnset(const std::string& name) const {
    auto sym = util::Symbol::Find(name);
    return sym.has_value() && MaybeUnset(*sym);
  }

  const SymValue* Lookup(util::Symbol name) const {
    auto it = vars_.find(name);
    return it == vars_.end() ? nullptr : &it->second;
  }
  const SymValue* Lookup(const std::string& name) const {
    // Non-inserting: a name that was never interned was never bound.
    auto sym = util::Symbol::Find(name);
    return sym.has_value() ? Lookup(*sym) : nullptr;
  }

  void Bind(util::Symbol name, SymValue value) {
    RemoveBindingDigest(name);
    maybe_unset_.erase(name);
    SymValue& slot = vars_[name];
    slot = std::move(value);
    vars_digest_.Add(BindingHash(name, slot, /*maybe_unset=*/false));
  }
  void Bind(const std::string& name, SymValue value) {
    Bind(util::Symbol::Intern(name), std::move(value));
  }

  void BindMaybeUnset(util::Symbol name, SymValue value) {
    RemoveBindingDigest(name);
    maybe_unset_.insert(name);
    SymValue& slot = vars_[name];
    slot = std::move(value);
    vars_digest_.Add(BindingHash(name, slot, /*maybe_unset=*/true));
  }
  void BindMaybeUnset(const std::string& name, SymValue value) {
    BindMaybeUnset(util::Symbol::Intern(name), std::move(value));
  }

  void Unset(util::Symbol name) {
    RemoveBindingDigest(name);
    vars_.erase(name);
    maybe_unset_.erase(name);
  }
  void Unset(const std::string& name) {
    auto sym = util::Symbol::Find(name);
    if (sym.has_value()) {
      Unset(*sym);
    }
  }

  const VarMap& vars() const { return vars_; }
  const std::set<util::Symbol>& maybe_unset() const { return maybe_unset_; }

  // Subshell semantics: adopt the parent's variable/function scope (the
  // subshell result keeps its own exit/stdout/sfs).
  void RestoreScopeFrom(const State& parent) {
    vars_ = parent.vars_;
    maybe_unset_ = parent.maybe_unset_;
    vars_digest_ = parent.vars_digest_;
    functions = parent.functions;
  }

  // Appends a path-condition note while fewer than kMaxAssumptions are kept.
  // The callable form builds the note only when it will be kept.
  void Assume(std::string note) {
    if (assumptions.size() < kMaxAssumptions) {
      assumptions.push_back(std::move(note));
    }
  }
  template <std::invocable MakeNote>
  void Assume(MakeNote&& make_note) {
    if (assumptions.size() < kMaxAssumptions) {
      assumptions.push_back(make_note());
    }
  }

  // Joined stdout as a single value ("" when no output) with trailing
  // newline stripped — command-substitution semantics.
  SymValue JoinedStdout() const;

  // 64-bit digest of everything the legacy merge signature compared:
  // terminated, exit, cwd, variable bindings (with their maybe-unset marks),
  // filesystem facts, and the stdout line sequence. Excludes — exactly as
  // the string signature did — id, assumptions, assumed_failure, functions,
  // and stdout provenance. The variable component is maintained
  // incrementally; the rest are cached per part, so a call is O(stdout).
  uint64_t Digest() const;

 private:
  State(const State&) = default;  // Only through Fork().

  static uint64_t BindingHash(util::Symbol name, const SymValue& value,
                              bool maybe_unset) {
    uint64_t h = util::FnvMix64(0x7661723a00000000ull, name.hash());  // "var:"
    h = util::FnvMix64(h, value.Digest());
    return util::FnvMix64(h, maybe_unset ? 2 : 1);
  }

  void RemoveBindingDigest(util::Symbol name) {
    auto it = vars_.find(name);
    if (it != vars_.end()) {
      vars_digest_.Remove(
          BindingHash(name, it->second, maybe_unset_.count(name) > 0));
    }
  }

  // Variable store. Missing name = unset. `maybe_unset_` marks names whose
  // set-ness is environment-dependent (positional parameters, inherited env).
  VarMap vars_;
  std::set<util::Symbol> maybe_unset_;
  util::CommutativeDigest vars_digest_;
};

}  // namespace sash::symex

#endif  // SASH_SYMEX_STATE_H_
