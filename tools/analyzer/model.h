#ifndef STREAMLINE_TOOLS_ANALYZER_MODEL_H_
#define STREAMLINE_TOOLS_ANALYZER_MODEL_H_

// Program model of streamline-analyzer.
//
// The structural frontend (lex.cc/parse.cc) reduces every translation unit
// to per-function summaries: calls made, locks acquired and the program
// order between them, nondeterministic std types named, and Record copy
// constructions. Everything downstream -- call-graph construction,
// reachability checks, lock-order propagation, diagnostics -- consumes only
// this model.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace streamline::analyzer {

struct SourceLoc {
  std::string file;  // path as given on the command line (repo-relative in CI)
  int line = 0;

  bool operator<(const SourceLoc& o) const {
    if (file != o.file) return file < o.file;
    return line < o.line;
  }
  bool operator==(const SourceLoc& o) const {
    return file == o.file && line == o.line;
  }
};

/// One call expression inside a function body.
struct CallSite {
  /// Name as written: "Foo", "obj.Foo" resolved to just "Foo"; qualified
  /// calls keep their qualifier ("QueryRegistry::CommandsAfter" or
  /// "std::this_thread::sleep_for").
  std::string name;
  std::string qualifier;  // explicit A::B qualifier, if written
  /// Receiver chain for member calls, outermost first: `a[i]->b.Foo()`
  /// yields {"a", "b"}. Empty for free/unqualified calls.
  std::vector<std::string> receiver_chain;
  SourceLoc loc;
  /// Locks (canonical ids, see LockAcquire) held at this call site, in
  /// acquisition order. Filled by ResolveLockIds from held_idx.
  std::vector<std::string> held_locks;
  /// Frontend-internal: indices into FunctionInfo::locks held here.
  std::vector<int> held_idx;
  /// True when the callee expression is a function-typed variable
  /// (std::function, callback member): an opaque indirect call the
  /// analyzer deliberately does not follow.
  bool indirect = false;

  /// Call arguments, for by-value copy detection. One entry per top-level
  /// argument.
  struct Arg {
    /// First identifier of a plain lvalue chain ("record" for
    /// `record.key`), empty when the argument is a computed value /
    /// std::move / temporary (i.e. not a copy source).
    std::string lvalue_head;
    /// True when the argument is that identifier alone (`record`, not
    /// `record.key`), so its declared type is the argument's type.
    bool bare_name = false;
    /// True when the lvalue is one branch of a ?: (conditional copy, the
    /// broadcast `last ? std::move(r) : r` idiom).
    bool conditional = false;
  };
  std::vector<Arg> args;
};

/// One lock acquisition (RAII MutexLock or explicit .Lock()).
struct LockAcquire {
  /// Canonical lock identity: "Class::field_" for member mutexes (of this
  /// or any other object -- ordering is per lock *site class*, the standard
  /// static approximation), "Fn/local" for locals. Filled by
  /// ResolveLockIds; the frontend records `chain` instead (member
  /// declarations may not have been parsed yet when a body is seen).
  std::string lock_id;
  /// Receiver chain of the mutex expression: `&workers_[i]->mu` yields
  /// {"workers_", "mu"}.
  std::vector<std::string> chain;
  SourceLoc loc;
  /// Locks already held when this one was acquired, in order. Filled by
  /// ResolveLockIds from held_idx.
  std::vector<std::string> held_locks;
  std::vector<int> held_idx;
};

/// A nondeterministic std type named in a body -- std::chrono::system_clock
/// or std::random_device -- whether as a variable type, a qualifier or a
/// temporary. (Nondeterministic *calls* such as rand() or time() are
/// ordinary CallSites the checks classify by name.)
struct NondetTypeUse {
  std::string name;  // display name, e.g. "std::chrono::system_clock::now"
  SourceLoc loc;
};

/// The per-record data types whose copies record-copy-in-hot-path reports.
inline bool IsHotType(const std::string& cls) {
  return cls == "Record" || cls == "Value";
}

/// A copy construction of a Record or Value local from an lvalue
/// (assignment-init or direct-init). Copies at call sites -- pass-by-value,
/// push_back of a named Record -- are found by the check from CallSite
/// arguments.
struct RecordCopy {
  std::string description;  // e.g. "Record copied into push_back"
  SourceLoc loc;
};

struct FunctionInfo {
  /// Qualified name, e.g. "QueryRegistry::WaitQueryApplied" or "KeyHashOf".
  std::string qualified_name;
  std::string class_name;  // enclosing class ("" for free functions)
  std::string bare_name;   // "WaitQueryApplied"
  SourceLoc loc;           // definition site
  bool is_override = false;

  std::vector<CallSite> calls;
  std::vector<LockAcquire> locks;
  std::vector<NondetTypeUse> nondet_types;
  std::vector<RecordCopy> copies;

  /// Parameters in order, for by-value copy detection at call sites.
  struct Param {
    std::string type;     // unwrapped class type
    bool by_value = false;  // no & / * in the declared type
  };
  std::vector<Param> params;

  /// Local variable / parameter types, for receiver resolution:
  /// name -> unwrapped class type ("QueryRegistry" for
  /// std::shared_ptr<QueryRegistry>).
  std::map<std::string, std::string> local_types;

  /// Locals and parameters declared as a Record or Value the function may
  /// move from (by value, `&` or `&&`; not const, not a pointer, not in a
  /// container). Appending one to a container by name copies it.
  std::set<std::string> movable_hot_locals;

  /// Range-for variables declared `auto`: name -> receiver chain of the
  /// container expression (`for (auto& op : ops)` yields op -> {"ops"}).
  /// The resolver types them as the container's unwrapped element type.
  std::map<std::string, std::vector<std::string>> local_elem_of;
};

struct ClassInfo {
  std::string name;                 // unqualified ("Task", "QueryRegistry")
  std::vector<std::string> bases;   // direct bases, unqualified
  /// Member variable name -> unwrapped class type.
  std::map<std::string, std::string> member_types;
  /// Type aliases declared in the class body (using X = Y<...>): X -> Y.
  std::map<std::string, std::string> aliases;
  /// Methods *declared* in the class body (definitions may be out of line).
  std::set<std::string> method_names;
};

/// A waiver comment: `// analyzer:allow(<check>): <reason>`.
struct Waiver {
  std::string check;
  std::string reason;  // empty => error (waiver-missing-reason)
  SourceLoc loc;
  mutable bool used = false;
};

/// The whole-program model all checks run over.
struct Program {
  /// Keyed by qualified name. Overloads collapse into one summary (their
  /// facts merge), which is the right conservative behavior for
  /// reachability.
  std::map<std::string, FunctionInfo> functions;
  std::map<std::string, ClassInfo> classes;
  std::vector<Waiver> waivers;

  /// Derived: class -> transitive subclasses (filled by BuildHierarchy).
  std::map<std::string, std::set<std::string>> subclasses;

  void BuildHierarchy();
  /// True when `cls` is `base` or transitively derives from it.
  bool DerivesFrom(const std::string& cls, const std::string& base) const;
};

/// One reported finding, with the call path that proves reachability.
struct Diagnostic {
  std::string check;
  SourceLoc loc;      // primary location (the offending primitive / site)
  std::string message;
  /// Call path, entry first: "WindowAggOperator::ProcessWatermark" ...
  /// each with its call-site location. Lines on this path are valid waiver
  /// anchor points.
  std::vector<std::pair<std::string, SourceLoc>> path;

  bool operator<(const Diagnostic& o) const {
    if (check != o.check) return check < o.check;
    if (!(loc == o.loc)) return loc < o.loc;
    return message < o.message;
  }
};

}  // namespace streamline::analyzer

#endif  // STREAMLINE_TOOLS_ANALYZER_MODEL_H_
