#ifndef STREAMLINE_TOOLS_ANALYZER_CHECKS_H_
#define STREAMLINE_TOOLS_ANALYZER_CHECKS_H_

#include <set>
#include <string>
#include <vector>

#include "model.h"

namespace streamline::analyzer {

// Check names, as used in diagnostics and `analyzer:allow(<name>)` waivers.
inline constexpr char kCheckBlockInMorsel[] = "block-in-morsel";
inline constexpr char kCheckLockOrder[] = "lock-order-cycle";
inline constexpr char kCheckSnapshotDeterminism[] = "snapshot-nondeterminism";
inline constexpr char kCheckRecordCopy[] = "record-copy-in-hot-path";
inline constexpr char kCheckRawSocket[] = "raw-socket";
inline constexpr char kCheckStaleWaiver[] = "stale-waiver";

/// Resolves call sites against the program model: explicit qualifiers,
/// receiver chains through member/local types, virtual dispatch to subclass
/// overrides, and a conservative name-based fallback for receivers the
/// structural frontend cannot type.
class Resolver {
 public:
  explicit Resolver(const Program& prog);

  /// Qualified names of possible callees (empty for indirect/intrinsic
  /// calls the checks classify themselves).
  std::vector<std::string> Targets(const FunctionInfo& caller,
                                   const CallSite& cs) const;

  /// Canonical lock id for a mutex receiver chain recorded by the frontend.
  std::string LockId(const FunctionInfo& fn,
                     const std::vector<std::string>& chain) const;

 private:
  const Program& prog_;
  std::map<std::string, std::vector<std::string>> by_bare_name_;

  /// `cls` and its transitive bases known to the model, each once.
  std::vector<const ClassInfo*> Lineage(const std::string& cls) const;
  std::vector<std::string> MethodTargets(const std::string& cls,
                                         const std::string& name) const;
  std::string ChainClass(const FunctionInfo& caller,
                         const std::vector<std::string>& chain) const;
  std::string FieldTypeIn(const std::string& cls,
                          const std::string& field) const;
  std::string FindFieldOwner(const std::string& cls,
                             const std::string& field) const;
  std::string ResolveAlias(const std::string& name) const;
};

/// Fills LockAcquire::lock_id and the held_locks lists from the receiver
/// chains the frontend recorded. Must run after all files are parsed (a
/// body can reference members declared later in its class).
void ResolveLockIds(Program* prog);

struct CheckOptions {
  /// Functions whose blocking facts are sanctioned (the park/doorbell sites
  /// in thread_pool.cc). Matched on qualified name.
  std::set<std::string> blocking_allowlist = {
      "WorkStealingPool::WorkerMain",
      "WorkStealingPool::TimerMain",
      "ThreadPool::WorkerMain",
  };
  /// Which checks to run (empty = all).
  std::set<std::string> only;
};

/// Runs all checks, applies waivers, appends stale-waiver diagnostics.
/// Returned diagnostics are sorted and deduplicated. Calls ResolveLockIds
/// on the program first.
std::vector<Diagnostic> RunChecks(Program& prog, const CheckOptions& opts);

/// Lists the roots the reachability checks start from, one per line:
/// "morsel-entry: X", "hot-path-entry: X", "snapshot-entry: X".
std::string DescribeEntries(const Program& prog);

/// Renders one diagnostic in the stable golden format.
std::string FormatDiagnostic(const Diagnostic& d);

}  // namespace streamline::analyzer

#endif  // STREAMLINE_TOOLS_ANALYZER_CHECKS_H_
