// streamline-analyzer: cross-TU call-graph checks for the STREAMLINE engine.
//
//   streamline-analyzer --src src [--src more/dir] [--compdb build/compile_commands.json]
//                       [--check block-in-morsel] [--list-waivers] [--list-entries]
//
// Scans the given directories (.h/.cc/.hpp/.cpp), builds the program model
// with the structural frontend, and runs the checks -- the only
// implementation of each:
//   block-in-morsel          no blocking primitive reachable from Step /
//                            ProcessBatch / ProcessRecord / ProcessWatermark
//                            (blocking socket syscalls count, unless the
//                            call passes MSG_DONTWAIT or lives in src/net/)
//   lock-order-cycle         no cycle in the static lock-acquisition graph
//   snapshot-nondeterminism  no wall clock / PRNG reachable from Snapshot* /
//                            Restore* / ApplyDelta or from any method of
//                            the checkpoint store, the coordinator and the
//                            replayable event log
//   record-copy-in-hot-path  no Record/Value lvalue copies reachable from
//                            Step / ProcessBatch / ProcessRecord /
//                            ProcessWatermark / Emit
//   raw-socket               socket(2)/socketpair(2) confined to src/net/
//
// Diagnostics carry the full call path. Suppress a finding by placing
// `// analyzer:allow(<check>): <reason>` on (or directly above) any line of
// its path -- for record-copy-in-hot-path, on the copy itself; waivers
// that match nothing, or lack a reason, are errors.
//
// Exit codes: 0 clean, 1 diagnostics found, 2 usage/IO error.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "lex.h"
#include "model.h"
#include "parse.h"

namespace fs = std::filesystem;
using namespace streamline::analyzer;

namespace {

bool HasSourceExt(const fs::path& p) {
  const std::string e = p.extension().string();
  return e == ".h" || e == ".cc" || e == ".hpp" || e == ".cpp";
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "streamline-analyzer: cannot read " << path << "\n";
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Minimal extraction of "file" entries from compile_commands.json --
/// enough to cross-check scan coverage without a JSON dependency.
std::vector<std::string> CompdbFiles(const std::string& path) {
  const std::string text = ReadFileOrDie(path);
  std::vector<std::string> files;
  const std::string key = "\"file\"";
  size_t pos = 0;
  while ((pos = text.find(key, pos)) != std::string::npos) {
    pos += key.size();
    size_t q1 = text.find('"', pos);
    if (q1 == std::string::npos) break;
    size_t q2 = text.find('"', q1 + 1);
    if (q2 == std::string::npos) break;
    files.push_back(text.substr(q1 + 1, q2 - q1 - 1));
    pos = q2 + 1;
  }
  return files;
}

void Usage() {
  std::cerr
      << "usage: streamline-analyzer --src DIR [--src DIR]...\n"
      << "           [--compdb compile_commands.json] [--check NAME]...\n"
      << "           [--list-waivers] [--list-entries]\n"
      << "checks: block-in-morsel lock-order-cycle snapshot-nondeterminism\n"
      << "        record-copy-in-hot-path raw-socket\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> src_dirs;
  std::string compdb;
  CheckOptions opts;
  bool list_waivers = false;
  bool list_entries = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--src") {
      src_dirs.push_back(next());
    } else if (arg == "--compdb") {
      compdb = next();
    } else if (arg == "--check") {
      opts.only.insert(next());
    } else if (arg == "--list-waivers") {
      list_waivers = true;
    } else if (arg == "--list-entries") {
      list_entries = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::cerr << "streamline-analyzer: unknown argument '" << arg << "'\n";
      Usage();
      return 2;
    }
  }
  if (src_dirs.empty()) {
    Usage();
    return 2;
  }

  // Collect files (sorted for deterministic output).
  std::set<std::string> files;
  for (const auto& dir : src_dirs) {
    std::error_code ec;
    fs::recursive_directory_iterator it(dir, ec), end;
    if (ec) {
      std::cerr << "streamline-analyzer: cannot scan " << dir << ": "
                << ec.message() << "\n";
      return 2;
    }
    for (; it != end; ++it) {
      if (it->is_regular_file() && HasSourceExt(it->path())) {
        files.insert(it->path().generic_string());
      }
    }
  }
  // compile_commands.json cross-check: every TU under a scanned dir must be
  // covered; TUs elsewhere (tests, benches) are out of scope.
  if (!compdb.empty()) {
    std::set<std::string> canonical;
    for (const auto& f : files) {
      std::error_code ec;
      const auto c = fs::weakly_canonical(f, ec);
      if (!ec) canonical.insert(c.generic_string());
    }
    for (const auto& f : CompdbFiles(compdb)) {
      std::error_code ec;
      const auto c = fs::weakly_canonical(f, ec);
      if (ec) continue;
      bool in_scope = false;
      for (const auto& dir : src_dirs) {
        const auto d = fs::weakly_canonical(dir, ec);
        if (!ec && c.generic_string().rfind(d.generic_string() + "/", 0) == 0) {
          in_scope = true;
        }
      }
      if (in_scope && !canonical.count(c.generic_string())) {
        std::cerr << "streamline-analyzer: compile_commands.json TU not "
                  << "covered by scan: " << c.generic_string() << "\n";
        return 2;
      }
    }
  }

  Program prog;
  for (const auto& f : files) {
    LexedFile lexed = Lex(f, ReadFileOrDie(f));
    ParseFile(lexed, &prog);
    CollectWaivers(lexed, &prog);
  }
  prog.BuildHierarchy();

  if (list_waivers) {
    for (const auto& w : prog.waivers) {
      std::cout << w.loc.file << ":" << w.loc.line << ": allow(" << w.check
                << ")" << (w.reason.empty() ? "  [MISSING REASON]" : ": " + w.reason)
                << "\n";
    }
    return 0;
  }
  if (list_entries) {
    // Debug aid: show what the checks treat as roots.
    std::cout << DescribeEntries(prog);
    return 0;
  }

  const std::vector<Diagnostic> diags = RunChecks(prog, opts);
  for (const auto& d : diags) {
    std::cout << FormatDiagnostic(d);
  }
  if (diags.empty()) {
    std::cerr << "streamline-analyzer: clean (" << files.size() << " files, "
              << prog.functions.size() << " functions)\n";
    return 0;
  }
  std::cerr << "streamline-analyzer: " << diags.size() << " diagnostic(s)\n";
  return 1;
}
