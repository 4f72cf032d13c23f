#pragma once

#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "netbase/prefix.hpp"

namespace sixdust {

/// Text formats for address and prefix lists — the interchange format of
/// the hitlist ecosystem (one entry per line, '#' comments, blank lines
/// ignored). This is how the real service publishes responsive sets,
/// aliased-prefix lists and blocklists.

/// Parse a list of addresses. On malformed lines, parsing stops and
/// nullopt is returned; `error_line` (1-based) reports the offender. A
/// stream that fails with a read error (`bad()`), and for the file forms a
/// path that is a directory, also give nullopt.
[[nodiscard]] std::optional<std::vector<Ipv6>> read_address_list(
    std::istream& in, std::size_t* error_line = nullptr);
[[nodiscard]] std::optional<std::vector<Ipv6>> read_address_file(
    const std::string& path, std::size_t* error_line = nullptr);

[[nodiscard]] std::optional<std::vector<Prefix>> read_prefix_list(
    std::istream& in, std::size_t* error_line = nullptr);
[[nodiscard]] std::optional<std::vector<Prefix>> read_prefix_file(
    const std::string& path, std::size_t* error_line = nullptr);

void write_address_list(std::ostream& out, std::span<const Ipv6> addrs,
                        std::string_view header = {});
[[nodiscard]] bool write_address_file(const std::string& path,
                                      std::span<const Ipv6> addrs,
                                      std::string_view header = {});

void write_prefix_list(std::ostream& out, std::span<const Prefix> prefixes,
                       std::string_view header = {});
[[nodiscard]] bool write_prefix_file(const std::string& path,
                                     std::span<const Prefix> prefixes,
                                     std::string_view header = {});

}  // namespace sixdust
