#pragma once

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sixdust::cli {

/// Minimal long-option parser for the sixdust command-line tools:
/// `--name value` or `--name=value`; bare `--flag` yields "true";
/// positional arguments are collected in order. usage_on_help() rejects
/// any option its usage text does not list.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg.erase(0, 2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        options_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        options_[arg] = argv[++i];
      } else {
        options_[arg] = "true";
      }
    }
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return options_.contains(name);
  }

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const {
    auto it = options_.find(name);
    return it == options_.end() ? fallback : it->second;
  }

  [[nodiscard]] std::uint64_t get_u64(const std::string& name,
                                      std::uint64_t fallback) const {
    auto it = options_.find(name);
    if (it == options_.end()) return fallback;
    return std::strtoull(it->second.c_str(), nullptr, 10);
  }

  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const {
    auto it = options_.find(name);
    if (it == options_.end()) return fallback;
    return std::strtod(it->second.c_str(), nullptr);
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Prints usage and exits 0 when --help was passed. Otherwise exits 2
  /// on the first option that does not appear as `--name` in `text`, so a
  /// removed or misspelt flag fails loudly instead of being ignored.
  void usage_on_help(const char* text) const {
    if (has("help")) {
      std::fputs(text, stdout);
      std::exit(0);
    }
    for (const auto& [name, value] : options_) {
      if (documented(text, name)) continue;
      std::fprintf(stderr, "unknown option --%s (see --help)\n", name.c_str());
      std::exit(2);
    }
  }

 private:
  /// True when `--name` occurs in `usage` as a whole option token.
  static bool documented(std::string_view usage, const std::string& name) {
    if (name.empty()) return false;
    const std::string flag = "--" + name;
    for (auto at = usage.find(flag); at != std::string_view::npos;
         at = usage.find(flag, at + 1)) {
      const std::size_t end = at + flag.size();
      const char next = end < usage.size() ? usage[end] : ' ';
      if (std::isalnum(static_cast<unsigned char>(next)) == 0 &&
          next != '-' && next != '_')
        return true;
    }
    return false;
  }

  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

[[noreturn]] inline void die(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(1);
}

}  // namespace sixdust::cli
