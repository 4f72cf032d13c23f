#include "lint/rules.hpp"

#include <algorithm>
#include <map>

namespace sixdust::lint {

namespace {

using Toks = std::vector<Tok>;

[[nodiscard]] bool is_punct(const Tok& t, std::string_view glyph) {
  return t.kind == TokKind::kPunct && t.text == glyph;
}

[[nodiscard]] bool is_ident(const Tok& t, std::string_view name) {
  return t.kind == TokKind::kIdent && t.text == name;
}

[[nodiscard]] bool member_access_before(const Toks& toks, std::size_t i) {
  return i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
}

/// Index of the ')' matching the '(' at `open`; toks.size() when
/// unbalanced (truncated file) — callers treat that as "no match".
[[nodiscard]] std::size_t match_paren(const Toks& toks, std::size_t open) {
  std::size_t depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], "(")) ++depth;
    if (is_punct(toks[i], ")") && --depth == 0) return i;
  }
  return toks.size();
}

[[nodiscard]] bool path_starts_with(std::string_view path,
                                    std::string_view prefix) {
  return path.rfind(prefix, 0) == 0;
}

// ---- scope predicates ------------------------------------------------

bool scope_stable_paths(std::string_view path) {
  // Determinism contracts bind everything that can feed stable output:
  // the library and the CLIs. Tests may use wall clocks for timeouts.
  return path_starts_with(path, "src/") || path_starts_with(path, "tools/");
}

bool scope_src_tools(std::string_view path) {
  return path_starts_with(path, "src/") || path_starts_with(path, "tools/");
}

bool scope_everywhere(std::string_view path) {
  (void)path;
  return true;
}

bool scope_raw_thread(std::string_view path) {
  // The pool implementation is the one sanctioned owner of raw threads;
  // everything else either runs on the shared pool or carries an allow.
  if (path_starts_with(path, "src/core/thread_pool")) return false;
  return scope_src_tools(path);
}

bool scope_ordered_atomics(std::string_view path) {
  return path_starts_with(path, "src/core/") ||
         path_starts_with(path, "src/serve/") ||
         path_starts_with(path, "src/obs/");
}

// ---- determinism rules -----------------------------------------------

constexpr std::string_view kWallclockTypes[] = {
    "system_clock", "steady_clock", "high_resolution_clock", "random_device"};
constexpr std::string_view kWallclockCalls[] = {
    "time",      "clock",        "rand",      "srand",  "getenv",
    "localtime", "gettimeofday", "clock_gettime", "gmtime", "mktime"};

void run_det_wallclock(FileCtx& ctx) {
  const Toks& toks = ctx.ts->toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    const bool is_type =
        std::find(std::begin(kWallclockTypes), std::end(kWallclockTypes),
                  t.text) != std::end(kWallclockTypes);
    if (is_type) {
      ctx.emit("det-wallclock", t.line,
               "nondeterministic source '" + std::string(t.text) +
                   "' in a stable-path TU");
      continue;
    }
    const bool is_call =
        std::find(std::begin(kWallclockCalls), std::end(kWallclockCalls),
                  t.text) != std::end(kWallclockCalls);
    if (is_call && i + 1 < toks.size() && is_punct(toks[i + 1], "(") &&
        !member_access_before(toks, i)) {
      ctx.emit("det-wallclock", t.line,
               "call to '" + std::string(t.text) +
                   "()' in a stable-path TU");
    }
  }
}

void run_det_unordered_iter(FileCtx& ctx) {
  const Toks& toks = ctx.ts->toks;
  std::vector<std::string> names = collect_unordered_names(*ctx.ts);
  if (ctx.extra_unordered != nullptr)
    names.insert(names.end(), ctx.extra_unordered->begin(),
                 ctx.extra_unordered->end());
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "for") || !is_punct(toks[i + 1], "(")) continue;
    const std::size_t close = match_paren(toks, i + 1);
    if (close == toks.size()) continue;
    // The range-for colon sits at nesting depth 1 relative to the for's
    // own parenthesis ("::" lexes as one token, so ":" is unambiguous).
    std::size_t colon = 0;
    std::size_t depth = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (is_punct(toks[j], "(") || is_punct(toks[j], "[") ||
          is_punct(toks[j], "{"))
        ++depth;
      else if (is_punct(toks[j], ")") || is_punct(toks[j], "]") ||
               is_punct(toks[j], "}"))
        --depth;
      else if (depth == 1 && is_punct(toks[j], ":")) {
        colon = j;
        break;
      }
    }
    if (colon == 0) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (toks[j].kind != TokKind::kIdent) continue;
      const bool by_type = toks[j].text.rfind("unordered_", 0) == 0;
      bool by_name =
          std::find(names.begin(), names.end(), toks[j].text) != names.end();
      // A name match through member access (`entry.responsive`) refers to
      // some other object's field, not the unordered local whose name it
      // happens to share; only `this->` keeps the match.
      if (by_name && j > colon + 1 &&
          (is_punct(toks[j - 1], ".") || is_punct(toks[j - 1], "->")) &&
          !(j >= 2 && is_ident(toks[j - 2], "this")))
        by_name = false;
      if (by_type || by_name) {
        ctx.emit("det-unordered-iter", toks[i].line,
                 "range-for over unordered container '" +
                     std::string(toks[j].text) +
                     "' — iteration order is not deterministic");
        break;
      }
    }
  }
}

void run_det_pointer_io(FileCtx& ctx) {
  const Toks& toks = ctx.ts->toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.kind == TokKind::kString &&
        // sixdust-lint: allow(det-pointer-io) — the matcher's own needle
        t.text.find("%p") != std::string_view::npos) {
      ctx.emit("det-pointer-io", t.line,
               // sixdust-lint: allow(det-pointer-io) — diagnostic text
               "format string prints a pointer value (%p)");
      continue;
    }
    if (is_ident(t, "hash") && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "<")) {
      std::size_t depth = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (is_punct(toks[j], "<")) ++depth;
        else if (is_punct(toks[j], ">") && --depth == 0) break;
        else if (is_punct(toks[j], "*")) {
          ctx.emit("det-pointer-io", t.line,
                   "std::hash over a pointer type — pointer values vary "
                   "run to run");
          break;
        }
      }
    }
  }
}

// ---- observability rules ---------------------------------------------

void run_obs_stability_arg(FileCtx& ctx) {
  for (const RegSite& site : scan_registrations(*ctx.ts)) {
    if (site.has_stability) continue;
    std::string message = "MetricsRegistry::" + site.kind +
                          "() relies on the default stability";
    if (!site.prefix.empty())
      message += " (name '" + site.prefix + (site.exact ? "')" : "…')");
    ctx.emit("obs-stability-arg", site.line, std::move(message));
  }
}

constexpr std::string_view kVolatileNamespaces[] = {"serve.", "pool."};

void run_obs_volatile_ns(FileCtx& ctx) {
  for (const RegSite& site : scan_registrations(*ctx.ts)) {
    const bool watched =
        std::any_of(std::begin(kVolatileNamespaces),
                    std::end(kVolatileNamespaces), [&](std::string_view ns) {
                      return site.prefix.rfind(ns, 0) == 0;
                    });
    if (!watched || site.stability == "volatile") continue;
    ctx.emit("obs-volatile-ns", site.line,
             "metric '" + site.prefix + (site.exact ? "'" : "…'") +
                 "' is in a volatile namespace but is not registered "
                 "Stability::kVolatile");
  }
}

// ---- concurrency rules -----------------------------------------------

void run_conc_raw_thread(FileCtx& ctx) {
  const Toks& toks = ctx.ts->toks;
  for (std::size_t i = 2; i < toks.size(); ++i) {
    if (!(is_ident(toks[i], "thread") || is_ident(toks[i], "jthread")))
      continue;
    if (!is_punct(toks[i - 1], "::") || !is_ident(toks[i - 2], "std"))
      continue;
    // std::thread::hardware_concurrency() queries, it does not spawn.
    if (i + 1 < toks.size() && is_punct(toks[i + 1], "::")) continue;
    ctx.emit("conc-raw-thread", toks[i].line,
             "raw std::" + std::string(toks[i].text) +
                 " outside the thread-pool allowlist");
  }
}

void run_conc_detach(FileCtx& ctx) {
  const Toks& toks = ctx.ts->toks;
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (is_ident(toks[i], "detach") && member_access_before(toks, i) &&
        is_punct(toks[i + 1], "("))
      ctx.emit("conc-detach", toks[i].line,
               "detached thread — nothing joins it at shutdown");
  }
}

void run_conc_bare_lock(FileCtx& ctx) {
  const Toks& toks = ctx.ts->toks;
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    const bool lockish = is_ident(toks[i], "lock") ||
                         is_ident(toks[i], "unlock") ||
                         is_ident(toks[i], "try_lock");
    if (lockish && member_access_before(toks, i) &&
        is_punct(toks[i + 1], "("))
      ctx.emit("conc-bare-lock", toks[i].line,
               "bare ." + std::string(toks[i].text) +
                   "() — lock lifetime is not scope-tied");
  }
}

constexpr std::string_view kAtomicOps[] = {
    "load",          "store",        "exchange",
    "fetch_add",     "fetch_sub",    "fetch_or",
    "fetch_and",     "fetch_xor",    "compare_exchange_weak",
    "compare_exchange_strong"};

void run_conc_memory_order(FileCtx& ctx) {
  const Toks& toks = ctx.ts->toks;
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    if (std::find(std::begin(kAtomicOps), std::end(kAtomicOps),
                  toks[i].text) == std::end(kAtomicOps))
      continue;
    if (!member_access_before(toks, i) || !is_punct(toks[i + 1], "("))
      continue;
    const std::size_t close = match_paren(toks, i + 1);
    if (close == toks.size()) continue;
    bool explicit_order = false;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (toks[j].kind == TokKind::kIdent &&
          toks[j].text.rfind("memory_order", 0) == 0) {
        explicit_order = true;
        break;
      }
    }
    if (!explicit_order)
      ctx.emit("conc-memory-order", toks[i].line,
               "atomic ." + std::string(toks[i].text) +
                   "() without an explicit memory order");
  }
}

// ---- world purity ----------------------------------------------------

bool scope_topo(std::string_view path) {
  return path_starts_with(path, "src/topo/");
}

void run_topo_mutable(FileCtx& ctx) {
  const Toks& toks = ctx.ts->toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "mutable")) continue;
    // `[..](..) mutable {` marks a lambda's copies writable, not state.
    if (i > 0 && is_punct(toks[i - 1], ")")) continue;
    ctx.emit("topo-mutable", toks[i].line,
             "mutable member in the simulated world — probes must stay "
             "pure functions of (address, date, seed)");
  }
}

// ---- the table -------------------------------------------------------

const std::vector<RuleDef>& rule_defs() {
  static const std::vector<RuleDef> kRules = {
      {{"det-wallclock", Severity::kError,
        "no wall clocks / system entropy / environment reads in "
        "stable-path TUs (src/, tools/)",
        "derive time from the simulated clock (scan_duration pacing, "
        "TraceRecorder sim time) and randomness from the seeded rng; "
        "annotate genuinely volatile uses"},
       scope_stable_paths,
       run_det_wallclock},
      {{"det-unordered-iter", Severity::kError,
        "no range-for over std::unordered_* containers in stable-path "
        "TUs — bucket order varies by libstdc++ version and seed",
        "copy keys to a vector and sort, iterate an index vector, or "
        "switch to std::map; annotate only order-independent folds"},
       scope_stable_paths,
       run_det_unordered_iter},
      {{"det-pointer-io", Severity::kError,
        // sixdust-lint: allow(det-pointer-io) — the rule's own summary
        "no pointer-value printing (%p) or pointer hashing feeding "
        "stable output",
        "print or hash a simulation-stable id (index, name, address "
        "value) instead of an object's location"},
       scope_stable_paths,
       run_det_pointer_io},
      {{"obs-stability-arg", Severity::kError,
        "every MetricsRegistry registration passes an explicit "
        "Stability:: argument",
        "state Stability::kStable or Stability::kVolatile at the call "
        "site — the default hides the determinism contract"},
       scope_src_tools,
       run_obs_stability_arg},
      {{"obs-volatile-ns", Severity::kError,
        "serve.* / pool.* metrics must be "
        "Stability::kVolatile — they describe execution, not the "
        "simulation",
        "register with Stability::kVolatile; if the value really is a "
        "pure function of the seed it belongs in another namespace"},
       scope_src_tools,
       run_obs_volatile_ns},
      {{"conc-raw-thread", Severity::kError,
        "no raw std::thread outside core/thread_pool — work runs on the "
        "shared pool",
        "submit to core::ThreadPool (caller participates, nested-safe); "
        "annotate sanctioned daemon/loadgen lanes"},
       scope_raw_thread,
       run_conc_raw_thread},
      {{"conc-detach", Severity::kError,
        "no std::thread::detach() anywhere",
        "keep the handle and join it on the shutdown path"},
       scope_everywhere,
       run_conc_detach},
      {{"conc-bare-lock", Severity::kError,
        "no bare .lock()/.unlock()/.try_lock() — RAII guards only",
        "use std::lock_guard, std::scoped_lock, or std::unique_lock"},
       scope_everywhere,
       run_conc_bare_lock},
      {{"conc-memory-order", Severity::kError,
        "atomics in src/core/, src/serve/, src/obs/ state their memory "
        "order explicitly",
        "say memory_order_relaxed / acquire / release / acq_rel — the "
        "seq_cst default hides the synchronization design"},
       scope_ordered_atomics,
       run_conc_memory_order},
      {{"topo-mutable", Severity::kError,
        "no mutable members under src/topo/ — a lazy memo on the probe "
        "path makes answers depend on probe history or take a lock",
        "compute the value on each probe, or build an immutable table; "
        "only observer side channels (PMTU map, name-server log) and "
        "write-once table slots carry an allow"},
       scope_topo,
       run_topo_mutable},
  };
  return kRules;
}

}  // namespace

std::string_view severity_name(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

std::vector<RegSite> scan_registrations(const TokenStream& ts) {
  const Toks& toks = ts.toks;

  // Pass 1: local `name = "literal" + ...` assignments, so prefix-built
  // names (`prefix = "serve." + name_`) still resolve to a leading
  // literal at the registration site.
  std::map<std::string_view, std::string_view> prefix_vars;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || !is_punct(toks[i + 1], "="))
      continue;
    if (i + 2 < toks.size() && is_punct(toks[i + 2], "=")) continue;  // ==
    for (std::size_t j = i + 2; j < toks.size() && j < i + 10; ++j) {
      const Tok& t = toks[j];
      if (is_ident(t, "std") || is_ident(t, "string") ||
          is_punct(t, "::") || is_punct(t, "("))
        continue;
      if (t.kind == TokKind::kString) prefix_vars[toks[i].text] = t.text;
      break;
    }
  }

  // Pass 2: the call sites. PhaseTimer is a sanctioned registration
  // wrapper — `PhaseTimer t(reg, "x")` registers x.calls (stable) plus
  // volatile wall-time metrics — so its construction sites contribute
  // non-exact stable manifest rows.
  std::vector<RegSite> sites;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "PhaseTimer") || member_access_before(toks, i))
      continue;
    std::size_t open = i + 1;
    if (toks[open].kind == TokKind::kIdent) ++open;  // PhaseTimer name(...)
    if (open >= toks.size() || !is_punct(toks[open], "(")) continue;
    const std::size_t close = match_paren(toks, open);
    for (std::size_t j = open + 1; j < close; ++j) {
      if (toks[j].kind != TokKind::kString) continue;
      RegSite site;
      site.line = toks[i].line;
      site.kind = "phase";
      site.prefix = std::string(toks[j].text);
      site.exact = false;  // PhaseTimer appends .calls / .wall_ns / ...
      site.has_stability = true;
      site.stability = "stable";
      sites.push_back(std::move(site));
      break;
    }
  }
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    const bool reg_call = is_ident(toks[i], "counter") ||
                          is_ident(toks[i], "gauge") ||
                          is_ident(toks[i], "histogram");
    if (!reg_call || !member_access_before(toks, i) ||
        !is_punct(toks[i + 1], "("))
      continue;
    const std::size_t open = i + 1;
    const std::size_t close = match_paren(toks, open);
    if (close == toks.size()) continue;

    RegSite site;
    site.line = toks[i].line;
    site.kind = std::string(toks[i].text);

    // First argument: everything up to the first depth-1 comma.
    std::size_t arg_end = close;
    std::size_t depth = 0;
    for (std::size_t j = open; j < close; ++j) {
      if (is_punct(toks[j], "(")) ++depth;
      else if (is_punct(toks[j], ")")) --depth;
      else if (depth == 1 && is_punct(toks[j], ",")) {
        arg_end = j;
        break;
      }
    }

    // Leading literal of the name expression: a string (possibly behind
    // std::string(...) wrappers), or one resolvable prefix variable.
    for (std::size_t j = open + 1; j < arg_end; ++j) {
      const Tok& t = toks[j];
      if (is_ident(t, "std") || is_ident(t, "string") ||
          is_punct(t, "::") || is_punct(t, "("))
        continue;
      if (t.kind == TokKind::kString) {
        site.prefix = std::string(t.text);
        site.exact = true;
        for (std::size_t k = j + 1; k < arg_end; ++k)
          if (!is_punct(toks[k], ")")) {
            site.exact = false;
            break;
          }
      } else if (t.kind == TokKind::kIdent) {
        const auto it = prefix_vars.find(t.text);
        if (it != prefix_vars.end()) site.prefix = std::string(it->second);
      }
      break;
    }

    site.stability = "default";
    for (std::size_t j = arg_end; j < close; ++j) {
      if (is_ident(toks[j], "Stability")) {
        site.has_stability = true;
        site.stability = "expr";
      } else if (site.has_stability && is_ident(toks[j], "kStable")) {
        site.stability = "stable";
      } else if (site.has_stability && is_ident(toks[j], "kVolatile")) {
        site.stability = "volatile";
      }
    }
    sites.push_back(std::move(site));
  }
  return sites;
}

std::vector<std::string> collect_unordered_names(const TokenStream& ts) {
  const Toks& toks = ts.toks;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        toks[i].text.rfind("unordered_", 0) != 0)
      continue;
    std::size_t j = i + 1;
    if (j < toks.size() && is_punct(toks[j], "<")) {
      std::size_t depth = 0;
      for (; j < toks.size(); ++j) {
        if (is_punct(toks[j], "<")) ++depth;
        else if (is_punct(toks[j], ">") && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    while (j < toks.size() &&
           (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
            is_ident(toks[j], "const") || is_ident(toks[j], "volatile")))
      ++j;
    if (j >= toks.size() || toks[j].kind != TokKind::kIdent) continue;
    if (j + 1 < toks.size() && is_punct(toks[j + 1], "::")) continue;
    const std::string name(toks[j].text);
    if (std::find(names.begin(), names.end(), name) == names.end())
      names.push_back(name);
  }
  return names;
}

const std::vector<RuleDef>& rules() { return rule_defs(); }

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> kTable = [] {
    std::vector<RuleInfo> t;
    for (const RuleDef& r : rule_defs()) t.push_back(r.info);
    t.push_back({"obs-manifest", Severity::kError,
                 "the extracted stable-name manifest must cover every "
                 "metric in the stable golden snapshot",
                 "register the metric from a statically recoverable name "
                 "(leading string literal or a local prefix variable)"});
    t.push_back({"lint-annotation", Severity::kError,
                 "every sixdust-lint: comment parses: allow(rule, ...) "
                 "\xe2\x80\x94 reason, with a known rule id and a "
                 "non-empty reason",
                 "fix the annotation grammar (see DESIGN.md \xc2\xa7"
                 "14)"});
    t.push_back({"lint-unused-allow", Severity::kWarning,
                 "an allow annotation that suppresses nothing is stale",
                 "delete the annotation or re-point it at the line that "
                 "still violates the rule"});
    return t;
  }();
  return kTable;
}

}  // namespace sixdust::lint
