#include "netbase/addrio.hpp"

#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <span>

namespace sixdust {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

template <typename T, typename ParseFn>
std::optional<std::vector<T>> read_list(std::istream& in, ParseFn parse,
                                        std::size_t* error_line) {
  std::vector<T> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string_view text = trim(line);
    const auto hash = text.find('#');
    if (hash != std::string_view::npos) text = trim(text.substr(0, hash));
    if (text.empty()) continue;
    auto value = parse(text);
    if (!value) {
      if (error_line != nullptr) *error_line = lineno;
      return std::nullopt;
    }
    out.push_back(*value);
  }
  // A read error (not end of input) must not pass for a shorter list.
  if (in.bad()) {
    if (error_line != nullptr) *error_line = lineno + 1;
    return std::nullopt;
  }
  return out;
}

/// Opens `path` for a list read; fails on a directory, which an ifstream
/// opens but cannot read.
std::optional<std::ifstream> open_list(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) return std::nullopt;
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return in;
}

}  // namespace

std::optional<std::vector<Ipv6>> read_address_list(std::istream& in,
                                                   std::size_t* error_line) {
  return read_list<Ipv6>(in, [](std::string_view t) { return Ipv6::parse(t); },
                         error_line);
}

std::optional<std::vector<Ipv6>> read_address_file(const std::string& path,
                                                   std::size_t* error_line) {
  auto in = open_list(path);
  if (!in) return std::nullopt;
  return read_address_list(*in, error_line);
}

std::optional<std::vector<Prefix>> read_prefix_list(std::istream& in,
                                                    std::size_t* error_line) {
  return read_list<Prefix>(
      in, [](std::string_view t) { return Prefix::parse(t); }, error_line);
}

std::optional<std::vector<Prefix>> read_prefix_file(const std::string& path,
                                                    std::size_t* error_line) {
  auto in = open_list(path);
  if (!in) return std::nullopt;
  return read_prefix_list(*in, error_line);
}

void write_address_list(std::ostream& out, std::span<const Ipv6> addrs,
                        std::string_view header) {
  if (!header.empty()) out << "# " << header << "\n";
  for (const auto& a : addrs) out << a.str() << "\n";
}

bool write_address_file(const std::string& path, std::span<const Ipv6> addrs,
                        std::string_view header) {
  std::ofstream out(path);
  if (!out) return false;
  write_address_list(out, addrs, header);
  return static_cast<bool>(out);
}

void write_prefix_list(std::ostream& out, std::span<const Prefix> prefixes,
                       std::string_view header) {
  if (!header.empty()) out << "# " << header << "\n";
  for (const auto& p : prefixes) out << p.str() << "\n";
}

bool write_prefix_file(const std::string& path,
                       std::span<const Prefix> prefixes,
                       std::string_view header) {
  std::ofstream out(path);
  if (!out) return false;
  write_prefix_list(out, prefixes, header);
  return static_cast<bool>(out);
}

}  // namespace sixdust
