#include "netbase/prefix.hpp"

#include <cstdio>
#include <cstdlib>

#include "netbase/hash.hpp"
#include "obs/log.hpp"

namespace sixdust {

std::optional<Prefix> Prefix::parse(std::string_view text) {
  const auto slash = text.rfind('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto addr = Ipv6::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  int len = 0;
  const auto len_text = text.substr(slash + 1);
  if (len_text.empty() || len_text.size() > 3) return std::nullopt;
  for (char c : len_text) {
    if (c < '0' || c > '9') return std::nullopt;
    len = len * 10 + (c - '0');
  }
  if (len > 128) return std::nullopt;
  return make(*addr, len);
}

Ipv6 Prefix::random_address(std::uint64_t salt) const {
  const std::uint64_t h0 = hash_combine(hash_of(base_, salt), len_);
  const std::uint64_t h1 = mix64(h0);
  // Address bit b (MSB-first) takes bit (b & 63) of h0 below bit 96 and of
  // h1 from bit 96 on, so each word of the fill is a bit-reversed hash.
  const std::uint64_t r0 = bit_reverse64(h0);
  const std::uint64_t fill_lo =
      (r0 & 0xFFFFFFFF00000000ULL) | (bit_reverse64(h1) & 0xFFFFFFFFULL);
  const Ipv6 h = host_mask();
  return Ipv6::from_words(base_.hi() | (r0 & h.hi()),
                          base_.lo() | (fill_lo & h.lo()));
}

std::string Prefix::str() const {
  return base_.str() + "/" + std::to_string(len_);
}

Prefix pfx(std::string_view text) {
  auto p = Prefix::parse(text);
  if (!p) {
    Logger::global().error(
        "netbase", "bad prefix literal '" + std::string(text) + "'");
    std::abort();
  }
  return *p;
}

}  // namespace sixdust
