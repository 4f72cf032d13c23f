#include "topo/world.hpp"

namespace sixdust {
namespace {

constexpr std::uint16_t kDefaultPmtu = 1500;

/// Our campus gateway, 2001:db8:affe::1: the first hop of every path.
constexpr Ipv6 kCampusGateway = Ipv6::from_words(0x20010db8affe0000ULL, 1);

/// Deterministic AAAA answer a "recursive resolver" in the simulation
/// produces for an arbitrary (non-controlled) name.
Ipv6 generic_answer(std::string_view qname) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : qname) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return Ipv6::from_words(0x2001486000000000ULL | (h >> 40), mix64(h));
}

}  // namespace

World::World(AsRegistry registry, Rib rib, Gfw gfw,
             std::vector<std::unique_ptr<Deployment>> deployments,
             std::vector<TransitAs> transits, std::uint64_t seed)
    : registry_(std::move(registry)),
      rib_(std::move(rib)),
      gfw_(std::move(gfw)),
      geo_(&rib_, &registry_),
      deployments_(std::move(deployments)),
      transits_(std::move(transits)),
      seed_(seed) {
  // The deployment map is immutable from here on: every probe resolves
  // through it, like the RIB (see DESIGN.md, "The LPM layer").
  std::vector<std::pair<Prefix, std::size_t>> by_prefix;
  for (std::size_t i = 0; i < deployments_.size(); ++i)
    for (const auto& p : deployments_[i]->prefixes())
      by_prefix.emplace_back(p, i);
  by_prefix_ = FrozenLpm<std::size_t>(std::move(by_prefix));
}

const Deployment* World::deployment_of(const Ipv6& a) const {
  const std::size_t* i = by_prefix_.lookup(a);
  return i == nullptr ? nullptr : deployments_[*i].get();
}

std::optional<HostBehavior> World::truth_host(const Ipv6& a,
                                              ScanDate d) const {
  const Deployment* dep = deployment_of(a);
  if (dep == nullptr) return std::nullopt;
  return dep->host(a, d);
}

ProtoMask World::answers(const Ipv6& target, ScanDate d) const {
  return host_answers(deployment_of(target), target, d);
}

World::PrefixAnswers World::answers_in(const Prefix& p) const {
  const auto i = by_prefix_.lookup_prefix(p);
  if (!i) return {this, nullptr, false};
  return {this, *i == nullptr ? nullptr : deployments_[**i].get(), true};
}

Ipv6 World::own_zone_answer(std::string_view qname) {
  std::uint64_t h = 14695981039346656037ULL;
  for (char c : qname) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return Ipv6::from_words(0x20010db800530000ULL, mix64(h));
}

bool World::behind_gfw(const Ipv6& target) const {
  auto asn = rib_.origin(target);
  if (!asn) return false;
  const AsInfo* info = registry_.find(*asn);
  return info != nullptr && info->cc == "CN";
}

std::optional<IcmpEchoReply> World::icmp_echo(const Ipv6& target,
                                              IcmpEchoRequest req,
                                              ScanDate d) const {
  auto h = truth_host(target, d);
  if (!h || !mask_has(h->responsive, Proto::Icmp)) return std::nullopt;
  IcmpEchoReply reply;
  reply.payload_size = req.payload_size;
  std::uint16_t pmtu = kDefaultPmtu;
  if (pmtu_used_.load(std::memory_order_acquire)) {
    std::shared_lock lk(pmtu_mutex_);
    auto it = pmtu_.find(h->key);
    if (it != pmtu_.end()) pmtu = it->second;
  }
  reply.fragmented = req.payload_size > pmtu;
  reply.hop_limit = static_cast<std::uint8_t>(64 - h->path_len);
  return reply;
}

void World::icmp_packet_too_big(const Ipv6& target, IcmpPacketTooBig ptb,
                                ScanDate d) const {
  auto h = truth_host(target, d);
  if (!h || !h->can_fragment) return;
  std::unique_lock lk(pmtu_mutex_);
  pmtu_[h->key] = ptb.mtu;
  pmtu_used_.store(true, std::memory_order_release);
}

std::optional<TcpSynAck> World::tcp_syn(const Ipv6& target,
                                        std::uint16_t port,
                                        ScanDate d) const {
  auto h = truth_host(target, d);
  if (!h) return std::nullopt;
  const Proto p = port == 80 ? Proto::Tcp80 : Proto::Tcp443;
  if (port != 80 && port != 443) return std::nullopt;
  if (!mask_has(h->responsive, p)) return std::nullopt;
  TcpSynAck syn_ack;
  syn_ack.features = h->tcp;
  syn_ack.hop_limit =
      static_cast<std::uint8_t>(h->tcp.ittl - h->path_len);
  return syn_ack;
}

std::vector<DnsMessage> World::dns_query(const Ipv6& target,
                                         const DnsQuestion& q,
                                         ScanDate d) const {
  std::vector<DnsMessage> out;
  // The injection happens on-path at the censored network's border; it
  // fires whether or not a host exists at the target.
  if (behind_gfw(target)) {
    auto injected = gfw_.inject(target, q, d);
    out.insert(out.end(), injected.begin(), injected.end());
  }

  auto h = truth_host(target, d);
  if (!h || !mask_has(h->responsive, Proto::Udp53)) return out;

  DnsMessage m;
  m.id = static_cast<std::uint16_t>(hash_of(target, 0xD5));
  m.response = true;
  m.questions.push_back(q);
  switch (h->dns) {
    case DnsServerKind::ErrorStatus:
      m.rcode = Rcode::Refused;
      break;
    case DnsServerKind::Recursive: {
      m.recursion_available = true;
      if (dns_name_under(q.qname, kOwnZone)) {
        m.answers.push_back(make_aaaa(q.qname, own_zone_answer(q.qname)));
        std::lock_guard lk(ns_log_mutex_);
        ns_log_.push_back(NsLogEntry{q.qname, target});
      } else {
        m.answers.push_back(make_aaaa(q.qname, generic_answer(q.qname)));
      }
      break;
    }
    case DnsServerKind::Referral: {
      m.authority.push_back(
          ResourceRecord{"", RrType::NS, 518400, std::string("a.root-servers.net")});
      m.authority.push_back(
          ResourceRecord{"", RrType::NS, 518400, std::string("b.root-servers.net")});
      break;
    }
    case DnsServerKind::Proxy: {
      m.recursion_available = true;
      if (dns_name_under(q.qname, kOwnZone)) {
        m.answers.push_back(make_aaaa(q.qname, own_zone_answer(q.qname)));
        // The egress request reaches our name server from a *different*
        // interface of the resolver.
        Ipv6 egress = target;
        egress.set_byte(15, static_cast<std::uint8_t>(target.byte(15) ^ 0x42));
        std::lock_guard lk(ns_log_mutex_);
        ns_log_.push_back(NsLogEntry{q.qname, egress});
      } else {
        m.answers.push_back(make_aaaa(q.qname, generic_answer(q.qname)));
      }
      break;
    }
    case DnsServerKind::Broken: {
      if (hash_of(target, 0xB20) % 2 == 0) {
        m.rcode = static_cast<Rcode>(11);  // out-of-spec status
      } else {
        m.authority.push_back(
            ResourceRecord{q.qname, RrType::NS, 60, std::string("localhost")});
      }
      break;
    }
  }
  out.push_back(std::move(m));
  return out;
}

std::optional<QuicReply> World::quic_probe(const Ipv6& target,
                                           ScanDate d) const {
  auto h = truth_host(target, d);
  if (!h || !mask_has(h->responsive, Proto::Udp443)) return std::nullopt;
  return QuicReply{};
}

bool World::probe(const Ipv6& target, Proto p, ScanDate d) const {
  switch (p) {
    case Proto::Icmp:
      return icmp_echo(target, IcmpEchoRequest{}, d).has_value();
    case Proto::Tcp80:
      return tcp_syn(target, 80, d).has_value();
    case Proto::Tcp443:
      return tcp_syn(target, 443, d).has_value();
    case Proto::Udp53:
      return !dns_query(target, DnsQuestion{"www.google.com", RrType::AAAA}, d)
                  .empty();
    case Proto::Udp443:
      return quic_probe(target, d).has_value();
  }
  return false;
}

World::Path World::path_to(const Ipv6& target, ScanDate d) const {
  Path path;
  // Hop 1: our campus gateway.
  path.push(Hop{kCampusGateway, true});

  // Transit: one or two backbone routers, chosen per target region so that
  // paths are stable but diverse.
  const std::uint64_t th = hash_of(Prefix::mask(target, 32), seed_);
  for (std::size_t i = 0; i < transits_.size() && i < 2; ++i) {
    const auto& t = transits_[(th + i) % transits_.size()];
    const std::uint32_t r =
        static_cast<std::uint32_t>(hash_combine(th, i) % t.router_count);
    path.push(Hop{t.router_prefix.random_address(hash_combine(0x207, r)), true});
  }

  // Border router of the destination network, then the target itself.
  const Deployment* dep = deployment_of(target);
  if (dep != nullptr) path.push(Hop{dep->border_router(target, d), true});
  const auto h =
      dep != nullptr ? dep->host(target, d) : std::optional<HostBehavior>{};
  path.push(Hop{target, h && mask_has(h->responsive, Proto::Icmp)});
  return path;
}

void World::enumerate_known(ScanDate d, std::vector<KnownAddress>& out) const {
  for (const auto& dep : deployments_) dep->enumerate_known(d, out);
}

}  // namespace sixdust
