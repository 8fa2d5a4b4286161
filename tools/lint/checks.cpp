#include "checks.h"

#include <algorithm>
#include <map>
#include <set>

namespace vlint {

namespace {

struct BodyRef {
  const LexedFile* file = nullptr;
  int begin = -1;  // token index of '{'
  int end = -1;    // one past matching '}'
  bool ok() const { return file != nullptr && begin >= 0; }
};

/// First token index of identifier `name` in [begin,end), or -1.
int first_mention(const LexedFile& f, int begin, int end,
                  const std::string& name) {
  for (int k = begin; k < end; ++k) {
    if (f.toks[k].kind == TokKind::kIdent && f.toks[k].text == name) return k;
  }
  return -1;
}

std::string basename_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// (1) Snapshot completeness.
// ---------------------------------------------------------------------------

void check_snapshot_completeness(const Repo& repo, std::vector<Diag>& out) {
  // Out-of-line definitions indexed by Class::method.
  std::map<std::string, const FuncDef*> defs;
  for (const FuncDef& fd : repo.funcs) defs[fd.cls + "::" + fd.name] = &fd;

  for (const ClassInfo& ci : repo.classes) {
    if (!ci.save_declared || !ci.restore_declared) continue;

    auto body = [&](const char* method, int inline_begin,
                    int inline_end) -> BodyRef {
      if (inline_begin >= 0) return BodyRef{ci.file, inline_begin, inline_end};
      const auto it = defs.find(ci.name + "::" + method);
      if (it == defs.end()) return BodyRef{};
      return BodyRef{it->second->file, it->second->body_begin,
                     it->second->body_end};
    };
    const BodyRef save = body("save", ci.save_body_begin, ci.save_body_end);
    const BodyRef restore =
        body("restore", ci.restore_body_begin, ci.restore_body_end);
    // Bodies outside the scanned tree (declaration-only view): nothing to
    // compare against.
    if (!save.ok() || !restore.ok()) continue;

    struct Placed {
      const Member* m;
      int save_at;
      int restore_at;
    };
    std::vector<Placed> placed;
    for (const Member& m : ci.members) {
      if (m.is_reference || m.skip_reason) continue;
      const int s = first_mention(*save.file, save.begin, save.end, m.name);
      const int r =
          first_mention(*restore.file, restore.begin, restore.end, m.name);
      if (s < 0) {
        out.push_back({"snap-complete", ci.file->path, m.line,
                       "member '" + m.name + "' of class '" + ci.name +
                           "' is not serialized in save(); add it or annotate "
                           "// snap:skip(<reason>)"});
      }
      if (r < 0) {
        out.push_back({"snap-complete", ci.file->path, m.line,
                       "member '" + m.name + "' of class '" + ci.name +
                           "' is not restored in restore(); add it or "
                           "annotate // snap:skip(<reason>)"});
      }
      if (s >= 0 && r >= 0 && !m.reorder_reason) {
        placed.push_back({&m, s, r});
      }
    }

    // Order agreement: the members' first-touch order in save() must match
    // restore(), or the byte stream is read back misaligned. Flag only the
    // minimal out-of-place set (the members outside a longest increasing
    // subsequence of restore positions), so one late-restored member does
    // not drag every member serialized after it into the report.
    std::sort(placed.begin(), placed.end(),
              [](const Placed& a, const Placed& b) {
                return a.save_at < b.save_at;
              });
    const int n = static_cast<int>(placed.size());
    std::vector<int> len(n, 1), prev(n, -1);
    int best = n > 0 ? 0 : -1;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < i; ++j) {
        if (placed[j].restore_at < placed[i].restore_at &&
            len[j] + 1 > len[i]) {
          len[i] = len[j] + 1;
          prev[i] = j;
        }
      }
      if (len[i] > len[best]) best = i;
    }
    std::vector<bool> in_order(n, false);
    for (int i = best; i >= 0; i = prev[i]) in_order[i] = true;
    for (int i = 0; i < n; ++i) {
      if (in_order[i]) continue;
      const Placed& p = placed[i];
      out.push_back(
          {"snap-complete", ci.file->path, p.m->line,
           "class '" + ci.name + "' restores '" + p.m->name +
               "' at a different point than save() serializes it; align "
               "the order or annotate // snap:reorder(<reason>)"});
    }
  }
}

// ---------------------------------------------------------------------------
// (2) Replay-determinism purity.
// ---------------------------------------------------------------------------

void check_determinism(const Repo& repo, std::vector<Diag>& out) {
  static const std::set<std::string> kCheckedLayers = {"common", "cpu", "hw",
                                                       "vmm"};
  static const std::set<std::string> kBannedHeaders = {
      "chrono", "random", "ctime", "time.h", "sys/time.h", "thread",
      "x86intrin.h"};
  // Identifiers that are nondeterministic wherever they appear.
  static const std::set<std::string> kBannedIdents = {
      "srand",         "rand_r",        "drand48",
      "lrand48",       "srandom",       "getenv",
      "setenv",        "gettimeofday",  "localtime",
      "gmtime",        "strftime",      "clock_gettime",
      "mktime",        "random_device", "mt19937",
      "mt19937_64",    "minstd_rand",   "default_random_engine",
      "rdtsc",         "__rdtsc",       "chrono",
      "steady_clock",  "system_clock",  "high_resolution_clock",
      "this_thread",   "sleep_for"};
  // Identifiers banned only as direct (or std::-qualified) calls, so that
  // unrelated members named `time` or `clock_.now()` never trip the check.
  static const std::set<std::string> kBannedCalls = {"rand", "time", "clock",
                                                     "random"};

  for (const auto& fp : repo.files) {
    const LexedFile& f = *fp;
    if (kCheckedLayers.count(f.layer) == 0) continue;
    if (f.path.size() >= 12 &&
        f.path.compare(f.path.size() - 12, 12, "common/rng.h") == 0) {
      continue;  // the sanctioned deterministic PRNG
    }
    // Every det:host-boundary waiver must excuse at least one banned
    // source; the audit at the end of the loop flags waivers that have
    // gone stale (the host call moved or was deleted, leaving a blanket
    // exemption behind). Consecutive comment lines with identical bodies
    // are one spliced/block comment — track the run by its first line.
    struct Waiver {
      bool file_level = false;
      bool used = false;
    };
    std::map<int, Waiver> waivers;
    bool file_exempt = false;
    int prev_line = -2;
    std::string prev_body;
    for (const auto& [line, text] : f.comments) {
      const bool continuation = line == prev_line + 1 && text == prev_body;
      prev_line = line;
      prev_body = text;
      if (continuation) continue;
      if (text.find("det:host-boundary(") == std::string::npos) continue;
      // A file-level waiver sits above any code; per-line waivers are
      // consulted at each banned occurrence below.
      const bool file_level = f.toks.empty() || line <= f.toks[0].line;
      waivers[line] = {file_level, false};
      file_exempt = file_exempt || file_level;
    }
    const auto mark_used = [&](int line) {
      // Resolve a continuation line of a multi-line comment back to the
      // run's first line, which is the one keyed in the map.
      while (waivers.find(line) == waivers.end()) {
        const auto at = f.comments.find(line);
        const auto above = f.comments.find(line - 1);
        if (at == f.comments.end() || above == f.comments.end() ||
            above->second != at->second) {
          return;
        }
        --line;
      }
      waivers[line].used = true;
    };
    const auto waived = [&](int line) {
      bool ok = false;
      if (const auto a = find_annotation_at(f, line, "det:host-boundary")) {
        mark_used(a->line);
        ok = true;
      }
      if (file_exempt) {
        for (auto& [l, w] : waivers) w.used = w.used || w.file_level;
        ok = true;
      }
      return ok;
    };

    for (const Include& inc : f.includes) {
      if (kBannedHeaders.count(inc.path) == 0) continue;
      if (waived(inc.line)) continue;
      out.push_back({"det-pure", f.path, inc.line,
                     "include of nondeterministic header <" + inc.path +
                         "> in replay-deterministic layer '" + f.layer +
                         "'; use common/rng.h + the simulated clock, or "
                         "annotate // det:host-boundary(<reason>)"});
    }

    const auto& t = f.toks;
    for (int i = 0; i < static_cast<int>(t.size()); ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      bool banned = kBannedIdents.count(t[i].text) > 0;
      if (!banned && kBannedCalls.count(t[i].text) > 0 &&
          i + 1 < static_cast<int>(t.size()) && t[i + 1].text == "(") {
        // Direct call or std::-qualified call only.
        const std::string prev = i > 0 ? t[i - 1].text : "";
        banned = prev != "." && prev != "->" &&
                 (prev != "::" || (i >= 2 && t[i - 2].text == "std"));
      }
      if (!banned) continue;
      if (waived(t[i].line)) continue;
      out.push_back({"det-pure", f.path, t[i].line,
                     "nondeterministic source '" + t[i].text +
                         "' in replay-deterministic layer '" + f.layer +
                         "'; use common/rng.h + the simulated clock, or "
                         "annotate // det:host-boundary(<reason>)"});
    }

    for (const auto& [line, w] : waivers) {
      if (w.used) continue;
      out.push_back({"det-pure", f.path, line,
                     "stale det:host-boundary waiver: no nondeterministic "
                     "header or identifier is excused by this annotation; "
                     "delete it or move it next to the host call it covers"});
    }
  }
}

// ---------------------------------------------------------------------------
// (3) Charge discipline.
// ---------------------------------------------------------------------------

namespace {

struct WalkResult {
  std::vector<int> uncovered_return_lines;
  std::vector<int> double_charge_lines;
  bool top_covered_at_end = false;
  bool ends_with_block = false;  // last body token before '}' closes a block
};

/// Structured walk of a function body. Scopes inherit coverage on '{' and
/// discard it on '}' (an if-branch charge proves nothing to its parent);
/// `case`/`default` labels reset the switch scope to its parent's state so
/// one charged case cannot vouch for its siblings.
WalkResult walk_charges(const FuncDef& fd, const std::set<std::string>& sinks) {
  const auto& t = fd.file->toks;
  struct Scope {
    bool covered;
    int direct;
  };
  std::vector<Scope> st{{false, 0}};
  WalkResult res;

  const int begin = fd.body_begin + 1;
  const int end = fd.body_end - 1;  // exclude the closing '}'
  for (int i = begin; i < end; ++i) {
    const Tok& tok = t[i];
    const std::string& s = tok.text;

    // Lambda literal: a deferred body proves nothing about this path —
    // skip it entirely.
    if (s == "[") {
      const std::string prev = i > begin ? t[i - 1].text : "";
      const bool subscript = prev == "]" || prev == ")" ||
                             (i > begin && t[i - 1].kind == TokKind::kIdent);
      if (!subscript) {
        int k = i;
        int bracket = 0;
        for (; k < end; ++k) {
          if (t[k].text == "[") ++bracket;
          if (t[k].text == "]" && --bracket == 0) break;
        }
        ++k;
        if (k < end && t[k].text == "(") {
          int paren = 0;
          for (; k < end; ++k) {
            if (t[k].text == "(") ++paren;
            if (t[k].text == ")" && --paren == 0) break;
          }
          ++k;
        }
        int guard = 0;
        while (k < end && t[k].text != "{" && t[k].text != ";" && guard++ < 16)
          ++k;
        if (k < end && t[k].text == "{") {
          i = match_brace(t, k) - 1;
          continue;
        }
      }
    }

    if (s == "{") {
      st.push_back(st.back());
      continue;
    }
    if (s == "}") {
      if (st.size() > 1) st.pop_back();
      continue;
    }
    if (tok.kind != TokKind::kIdent) continue;

    if (s == "case" || (s == "default" && i + 1 < end && t[i + 1].text == ":")) {
      st.back() = st.size() >= 2 ? st[st.size() - 2] : Scope{false, 0};
      continue;
    }
    if (s == "return") {
      bool covered = st.back().covered;
      // `return helper(...)` where the helper itself charges.
      for (int k = i + 1; k < end && t[k].text != ";"; ++k) {
        if (t[k].kind == TokKind::kIdent && k + 1 < end &&
            t[k + 1].text == "(" && sinks.count(t[k].text)) {
          covered = true;
        }
      }
      if (!covered) res.uncovered_return_lines.push_back(tok.line);
      continue;
    }
    // Call expression.
    if (i + 1 < end && t[i + 1].text == "(" && sinks.count(s)) {
      if (s == "charge") {
        if (++st.back().direct == 2) {
          res.double_charge_lines.push_back(tok.line);
        }
      }
      st.back().covered = true;
    }
  }
  res.top_covered_at_end = st.front().covered;
  res.ends_with_block = end - 1 > fd.body_begin && t[end - 1].text == "}";
  return res;
}

bool is_exit_handler_file(const std::string& path) {
  return basename_of(path).rfind("exit_", 0) == 0;
}

}  // namespace

void check_charge_discipline(const Repo& repo, std::vector<Diag>& out) {
  // Sinks: the charge API itself, every function annotated
  // charge:covered, and (to fixpoint) every vmm function proven to charge
  // on all paths.
  std::set<std::string> sinks = {"charge"};
  std::vector<const FuncDef*> vmm_funcs;
  for (const FuncDef& fd : repo.funcs) {
    if (fd.file->layer != "vmm") continue;
    vmm_funcs.push_back(&fd);
    if (find_annotation(*fd.file, fd.line, "charge:covered")) {
      sinks.insert(fd.name);
    }
  }
  for (bool grew = true; grew;) {
    grew = false;
    for (const FuncDef* fd : vmm_funcs) {
      if (sinks.count(fd->name)) continue;
      const WalkResult r = walk_charges(*fd, sinks);
      if (r.uncovered_return_lines.empty() && r.top_covered_at_end) {
        sinks.insert(fd->name);
        grew = true;
      }
    }
  }

  for (const FuncDef* fd : vmm_funcs) {
    if (!is_exit_handler_file(fd->file->path)) continue;
    if (find_annotation(*fd->file, fd->line, "charge:exempt")) continue;
    // charge:covered asserts the discipline holds in a way the walker
    // cannot see; enforcing the body would contradict the annotation.
    if (find_annotation(*fd->file, fd->line, "charge:covered")) continue;
    const WalkResult r = walk_charges(*fd, sinks);
    for (int line : r.uncovered_return_lines) {
      out.push_back({"charge-path", fd->file->path, line,
                     "exit handler '" + fd->cls + "::" + fd->name +
                         "' has a return path that never charges monitor "
                         "cycles; charge() it or annotate the function "
                         "// charge:exempt(<reason>)"});
    }
    if (fd->returns_void && !r.ends_with_block && !r.top_covered_at_end &&
        r.uncovered_return_lines.empty()) {
      out.push_back({"charge-path", fd->file->path, fd->line,
                     "exit handler '" + fd->cls + "::" + fd->name +
                         "' can fall off the end without charging monitor "
                         "cycles"});
    }
    for (int line : r.double_charge_lines) {
      out.push_back({"charge-path", fd->file->path, line,
                     "exit handler '" + fd->cls + "::" + fd->name +
                         "' charges twice on the same path (ambiguous "
                         "double charge)"});
    }
  }
}

// ---------------------------------------------------------------------------
// (4) Layer DAG.
// ---------------------------------------------------------------------------

void check_layer_dag(const Repo& repo, std::vector<Diag>& out) {
  // common <- {net, cpu} <- asm <- hw <- vmm <- {fullvmm, debug, guest}
  // <- fleet <- harness. Every edge is explicit: a new cross-layer include
  // is a deliberate architecture change, not a drive-by.
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"common", {"common"}},
      {"net", {"net", "common"}},
      {"cpu", {"cpu", "common"}},
      {"asm", {"asm", "common", "cpu"}},
      {"hw", {"hw", "common", "cpu", "asm", "net"}},
      {"vmm", {"vmm", "common", "cpu", "hw"}},
      {"fullvmm", {"fullvmm", "common", "cpu", "hw", "vmm"}},
      {"debug", {"debug", "common", "cpu", "asm", "hw", "vmm"}},
      {"guest", {"guest", "common", "cpu", "asm", "net", "hw"}},
      {"fleet",
       {"fleet", "common", "cpu", "asm", "net", "hw", "vmm", "fullvmm",
        "debug", "guest"}},
      {"harness",
       {"harness", "common", "cpu", "asm", "net", "hw", "vmm", "fullvmm",
        "debug", "guest", "fleet"}},
  };

  for (const auto& fp : repo.files) {
    const LexedFile& f = *fp;
    const auto allowed = kAllowed.find(f.layer);
    if (allowed == kAllowed.end()) continue;
    for (const Include& inc : f.includes) {
      if (inc.angled) continue;  // system headers are not layer edges
      const auto slash = inc.path.find('/');
      if (slash == std::string::npos) continue;
      const std::string target = inc.path.substr(0, slash);
      if (kAllowed.count(target) == 0) continue;  // not a layer path
      if (allowed->second.count(target)) continue;
      out.push_back({"layer-dag", f.path, inc.line,
                     "layer '" + f.layer + "' may not include \"" + inc.path +
                         "\": '" + target +
                         "' is not below it in the layer DAG (common <- "
                         "{net, cpu} <- asm <- hw <- vmm <- {fullvmm, "
                         "debug, guest} <- fleet <- harness)"});
    }
  }
}

// ---------------------------------------------------------------------------
// (5) Metric naming.
// ---------------------------------------------------------------------------

namespace {

bool valid_metric_segments(const std::string& name) {
  unsigned segments = 0;
  std::size_t seg_len = 0;
  for (const char c : name) {
    if (c == '.') {
      if (seg_len == 0) return false;  // empty segment
      ++segments;
      seg_len = 0;
      continue;
    }
    const bool ok =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
    ++seg_len;
  }
  if (seg_len == 0) return false;  // trailing dot / empty name
  return segments + 1 >= 3;
}

}  // namespace

void check_metric_names(const Repo& repo, std::vector<Diag>& out) {
  static const std::set<std::string> kRegistrars = {
      "add_counter", "add_gauge", "add_histogram"};
  // Registration-site table: the first two segments of a metric name are
  // its family, and every family is owned by exactly one layer — the only
  // place it may be registered. A family absent from this table is a
  // diagnostic, so adding a metric family means adding its owner here.
  // (vmm.multiverse lives in src/fleet: the multiverse coordinator sits
  // above the vmm layer even though it narrates vmm-level work.)
  static const std::map<std::string, std::string> kFamilyOwner = {
      // cpu: execution tiers, TLB, PC profiler, COW physical memory.
      {"cpu.core", "cpu"},
      {"cpu.sbc", "cpu"},
      {"cpu.tlb", "cpu"},
      {"cpu.profile", "cpu"},
      {"mem.cow", "cpu"},
      // hw: devices and the machine event loop.
      {"hw.machine", "hw"},
      {"hw.nic", "hw"},
      {"hw.pit", "hw"},
      {"hw.uart", "hw"},
      // vmm: exit accounting, IRQ spans, vTLB, exit tracing, guest and
      // monitor health, time travel, flight loop.
      {"vmm.exit", "vmm"},
      {"vmm.trace", "vmm"},
      {"vmm.irqspan", "vmm"},
      {"vmm.vtlb", "vmm"},
      {"vmm.health", "vmm"},
      {"vmm.tt", "vmm"},
      {"vmm.flight", "vmm"},
      // fleet: multiverse exploration and the per-machine metrics series.
      {"vmm.multiverse", "fleet"},
      {"fleet.series", "fleet"},
  };

  for (const auto& fp : repo.files) {
    const LexedFile& f = *fp;
    for (std::size_t k = 0; k + 2 < f.toks.size(); ++k) {
      const Tok& t = f.toks[k];
      if (t.kind != TokKind::kIdent || kRegistrars.count(t.text) == 0) {
        continue;
      }
      if (f.toks[k + 1].text != "(") continue;  // declaration or mention
      const Tok& arg = f.toks[k + 2];
      // Only literal names are statically checkable; dynamic names
      // (prefix + ".x") are validated by the registry at runtime.
      if (arg.kind != TokKind::kString) continue;
      std::string name = arg.text;
      if (name.size() >= 2 && name.front() == '"' && name.back() == '"') {
        name = name.substr(1, name.size() - 2);
      }
      if (!valid_metric_segments(name)) {
        out.push_back(
            {"metric-name", f.path, arg.line,
             "metric name \"" + name +
                 "\" must be layer.component.metric: at least three "
                 "non-empty dot-separated segments of [a-z0-9_]"});
        continue;  // a malformed name has no meaningful family
      }
      const auto second_dot = name.find('.', name.find('.') + 1);
      const std::string family = name.substr(0, second_dot);
      const auto owner = kFamilyOwner.find(family);
      if (owner == kFamilyOwner.end()) {
        out.push_back(
            {"metric-name", f.path, arg.line,
             "metric family \"" + family +
                 "\" has no owner in the registration-site table; add it "
                 "next to its owning layer in tools/lint/checks.cpp "
                 "(check_metric_names)"});
      } else if (owner->second != f.layer) {
        out.push_back(
            {"metric-name", f.path, arg.line,
             "metric \"" + name + "\": family \"" + family +
                 "\" is owned by layer '" + owner->second +
                 "' and may not be registered from layer '" + f.layer +
                 "'"});
      }
    }
  }
}

}  // namespace vlint
