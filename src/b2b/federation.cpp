#include "b2b/federation.hpp"

#include <map>
#include <mutex>
#include <optional>

#include "common/error.hpp"

namespace b2b::core {

namespace {

/// Wire v3 session authentication for the socket runtime: every party
/// (and the termination TTP) keys itself out of the federation's shared
/// deterministic keypair pool, by roster index — the same identities the
/// coordinators already sign evidence with. Unknown identities fail
/// closed (no peer key → no hello → no connection).
std::function<net::WireAuth(const PartyId&)> wire_auth_hook(
    std::vector<std::string> party_names, std::size_t bits) {
  auto roster = std::make_shared<const std::vector<std::string>>(
      std::move(party_names));
  auto key_index = [roster](const PartyId& id) -> std::optional<std::size_t> {
    if (id.str() == "termination-ttp") return 998;
    for (std::size_t i = 0; i < roster->size(); ++i) {
      if ((*roster)[i] == id.str()) return i;
    }
    return std::nullopt;
  };
  return [key_index, bits](const PartyId& self) {
    net::WireAuth auth;
    auto index = key_index(self);
    if (!index) return auth;  // not a federation identity: leave auth off
    auth.enabled = true;
    // Pool entries live for the process; alias them without owning.
    auth.private_key = std::shared_ptr<const crypto::RsaPrivateKey>(
        std::shared_ptr<const void>{},
        &Federation::shared_keypair(bits, *index));
    auth.peer_key = [key_index, bits](const PartyId& peer)
        -> std::shared_ptr<const crypto::RsaPublicKey> {
      auto peer_index = key_index(peer);
      if (!peer_index) return nullptr;  // fail closed on unknown peers
      return std::make_shared<crypto::RsaPublicKey>(
          Federation::shared_keypair(bits, *peer_index).public_key());
    };
    return auth;
  };
}

}  // namespace

const crypto::RsaPrivateKey& Federation::shared_keypair(std::size_t bits,
                                                        std::size_t index) {
  static std::mutex mutex;
  static std::map<std::pair<std::size_t, std::size_t>, crypto::RsaPrivateKey>
      cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto key = std::make_pair(bits, index);
  auto it = cache.find(key);
  if (it == cache.end()) {
    crypto::ChaCha20Rng rng(0xfede'0000ULL + bits * 1000 + index);
    it = cache.emplace(key, crypto::generate_rsa_keypair(bits, rng)).first;
  }
  return it->second;
}

Federation::Federation(std::vector<std::string> party_names)
    : Federation(std::move(party_names), Options{}) {}

Federation::Federation(std::vector<std::string> party_names,
                       const Options& options)
    : options_(options),
      node_executor_([this] {
        for (const auto& node : nodes_) {
          if (!node->quiescent()) return false;
        }
        return true;
      }),
      runtime_(options.runtime),
      rsa_bits_(options.rsa_bits) {
  if (runtime_ == RuntimeKind::kSim) {
    net::SimRuntime::Options sim_options;
    sim_options.seed = options.seed;
    sim_options.faults = options.faults;
    sim_options.reliable = options.reliable;
    sim_ = std::make_unique<net::SimRuntime>(sim_options);
  } else {
    // Every node shares one directory, so parties on different nodes
    // find each other.
    node_options_.directory = options.tcp_directory
                                  ? options.tcp_directory
                                  : std::make_shared<net::PeerDirectory>();
    node_options_.seed = options.seed;
    node_options_.faults = options.reactor_faults;
    node_options_.transport = options.reactor_transport;
    node_options_.workers = options.reactor_workers;
    if (options.wire_auth) {
      node_options_.wire_auth = wire_auth_hook(party_names, options.rsa_bits);
    }
    // kReactor: the node every party shares. kThreaded: the trusted
    // services' node (the TTP's transport, the TSS clock).
    add_node();
  }

  if (options.use_tss) {
    // The TSS gets its own identity (index well away from party keys).
    tss_ = std::make_unique<crypto::TimestampService>(
        shared_keypair(options.rsa_bits, 999),
        [&clock = clock()] { return clock.now_micros(); });
  }

  for (std::size_t i = 0; i < party_names.size(); ++i) {
    auto party = std::make_unique<Party>();
    party->id = PartyId{party_names[i]};
    if (runtime_ == RuntimeKind::kThreaded) add_node();
    if (!sim_) party->node = nodes_.back().get();
    net::Runtime& host =
        party->node ? static_cast<net::Runtime&>(*party->node) : *sim_;
    party->transport = &host.add_party(party->id);
    parties_.push_back(std::move(party));
    parties_.back()->coordinator = std::make_unique<Coordinator>(
        party_config(i), *parties_.back()->transport, host.clock(),
        tss_.get());
    // A frame acked by the transport may still be queued on one of the
    // coordinator's shard lanes; teach the node's quiescence probe
    // about it. Party objects are stable (vector of pointers) and the
    // node — and with it the probe — dies before parties_ does.
    Party* raw = parties_.back().get();
    if (raw->node) {
      raw->node->add_quiescence_probe([raw] {
        return !raw->coordinator || raw->coordinator->lanes_idle();
      });
    }
  }

  // Shared PKI: every organisation can verify every other's signatures
  // (§4.2: "All parties are assumed to have the means to verify each
  // other's signatures").
  for (auto& a : parties_) {
    for (auto& b : parties_) {
      if (a != b) {
        a->coordinator->add_known_party(b->id,
                                        b->coordinator->public_key());
      }
    }
  }
}

Federation::~Federation() {
  // Teardown is a two-stage barrier. First stop every node (transports,
  // loop, pool) so nothing new is posted to a coordinator shard lane;
  // then stop the lanes themselves, so no lane task can call into a
  // transport the node destructors (which run first — nodes are
  // declared last) are about to destroy.
  for (auto& node : nodes_) node->shutdown();
  for (auto& p : parties_) {
    if (p->coordinator) p->coordinator->stop_lanes();
  }
}

net::ReactorRuntime& Federation::add_node() {
  nodes_.push_back(std::make_unique<net::ReactorRuntime>(node_options_));
  return *nodes_.back();
}

net::Clock& Federation::clock() {
  if (sim_) return sim_->clock();
  return nodes_.front()->clock();
}

net::Executor& Federation::executor() {
  if (sim_) return sim_->executor();
  return node_executor_;
}

net::EventScheduler& Federation::scheduler() {
  if (!sim_) throw Error("scheduler(): not running on the sim runtime");
  return sim_->scheduler();
}

net::SimNetwork& Federation::network() {
  if (!sim_) throw Error("network(): not running on the sim runtime");
  return sim_->network();
}

net::ReactorRuntime& Federation::node(const std::string& name) {
  if (sim_) throw Error("node(): not running on a socket runtime");
  return *find_party(name).node;
}

std::vector<PartyId> Federation::party_ids() const {
  std::vector<PartyId> out;
  out.reserve(parties_.size());
  for (const auto& p : parties_) out.push_back(p->id);
  return out;
}

Federation::Party& Federation::find_party(const std::string& name) {
  for (auto& p : parties_) {
    if (p->id.str() == name) return *p;
  }
  throw Error("unknown party: " + name);
}

std::size_t Federation::party_index(const std::string& name) const {
  for (std::size_t i = 0; i < parties_.size(); ++i) {
    if (parties_[i]->id.str() == name) return i;
  }
  throw Error("unknown party: " + name);
}

Coordinator::Config Federation::party_config(std::size_t index) const {
  Coordinator::Config config;
  config.self = parties_[index]->id;
  config.key = shared_keypair(options_.rsa_bits, index);
  config.rng_seed = options_.seed * 1000003 + index;
  config.sponsor_policy = options_.sponsor_policy;
  config.decision_rule = options_.decision_rule;
  if (!options_.journal_root.empty()) {
    config.journal_dir =
        options_.journal_root + "/" + parties_[index]->id.str();
    config.journal_fsync = options_.journal_fsync;
  }
  config.run_probe_interval_micros = options_.run_probe_interval_micros;
  config.max_run_probes = options_.max_run_probes;
  config.lock_mode = options_.lock_mode;
  // Lanes only where real threads exist, as strands on the party's node
  // pool: the sim dispatches inline on one thread, preserving
  // bit-for-bit determinism.
  if (parties_[index]->node) config.lane_pool = parties_[index]->node->pool();
  config.pipeline = options_.pipeline;
  return config;
}

void Federation::crash_party(const std::string& name) {
  Party& party = find_party(name);
  if (!party.coordinator) {
    throw Error("crash_party: already crashed: " + name);
  }
  // Order matters. Dead on the fabric FIRST, so frames arriving during
  // the downtime are dropped *un-acked* (the peer keeps retransmitting)
  // rather than acked into a void; then detach the handler synchronously
  // (no dispatch is in flight into the dying coordinator afterwards);
  // then destroy it. The transport object itself survives the crash —
  // it models the reliable channel's persistent dedup/retransmission
  // state (§4.2).
  if (sim_) {
    sim_->network().set_alive(party.id, false);
  } else {
    party.node->set_alive(party.id, false);
  }
  party.transport->set_handler_sync({});
  party.transport->set_delivery_failure_handler({});
  party.coordinator.reset();
}

Coordinator& Federation::recover_party(const std::string& name) {
  const std::size_t index = party_index(name);
  Party& party = *parties_[index];
  if (party.coordinator) {
    throw Error("recover_party: not crashed: " + name);
  }
  if (sim_) {
    sim_->network().set_alive(party.id, true);
  } else {
    party.node->set_alive(party.id, true);
  }
  party.coordinator = std::make_unique<Coordinator>(
      party_config(index), *party.transport,
      party.node ? party.node->clock() : clock(), tss_.get());
  // Re-run the out-of-band PKI exchange for the restarted party: its own
  // certificate directory also comes back via the journal, but the setup
  // keys may predate the first barrier, and the *other* parties' view of
  // this party is refreshed for free.
  for (auto& other : parties_) {
    if (other->id == party.id || !other->coordinator) continue;
    party.coordinator->add_known_party(other->id,
                                       other->coordinator->public_key());
    other->coordinator->add_known_party(party.id,
                                        party.coordinator->public_key());
  }
  return *party.coordinator;
}

const crypto::RsaPrivateKey& Federation::keypair(
    const std::string& name) const {
  for (std::size_t i = 0; i < parties_.size(); ++i) {
    if (parties_[i]->id.str() == name) return shared_keypair(rsa_bits_, i);
  }
  throw Error("unknown party: " + name);
}

Coordinator& Federation::coordinator(const std::string& name) {
  return *find_party(name).coordinator;
}

net::Transport& Federation::transport(const std::string& name) {
  return *find_party(name).transport;
}

net::ReliableEndpoint& Federation::endpoint(const std::string& name) {
  if (!sim_) throw Error("endpoint(): not running on the sim runtime");
  net::ReliableEndpoint* endpoint = sim_->endpoint(find_party(name).id);
  if (endpoint == nullptr) throw Error("unknown party: " + name);
  return *endpoint;
}

Replica& Federation::register_object(const std::string& name,
                                     const ObjectId& object, B2BObject& impl) {
  return coordinator(name).register_object(object, impl);
}

void Federation::bootstrap_object(const ObjectId& object,
                                  const std::vector<std::string>& member_names,
                                  const Bytes& initial_state) {
  std::vector<PartyId> members;
  members.reserve(member_names.size());
  for (const auto& name : member_names) members.emplace_back(name);
  for (const auto& name : member_names) {
    coordinator(name).replica(object).bootstrap(members, initial_state);
  }
}

Controller Federation::make_controller(const std::string& name,
                                       const ObjectId& object,
                                       Controller::Mode mode) {
  return Controller(coordinator(name), executor(), object, mode);
}

bool Federation::run_until_done(const RunHandle& handle) {
  return executor().run_until([&] { return handle->done(); });
}

void Federation::settle() {
  executor().settle();
  if (runtime_ != RuntimeKind::kSim) {
    // Pick up every coordinator's mutex once so the caller's subsequent
    // unlocked reads observe all transport-thread writes.
    for (auto& p : parties_) {
      if (p->coordinator) p->coordinator->synchronize();
    }
  }
}

TerminationTtp& Federation::termination_ttp() {
  if (!termination_ttp_) {
    std::map<PartyId, crypto::RsaPublicKey> keys;
    for (const auto& p : parties_) {
      keys.emplace(p->id, p->coordinator->public_key());
    }
    const PartyId id{"termination-ttp"};
    net::Transport& transport =
        sim_ ? sim_->add_party(id) : nodes_.front()->add_party(id);
    termination_ttp_ = std::make_unique<TerminationTtp>(
        transport, clock(), shared_keypair(rsa_bits_, 998), std::move(keys));
  }
  return *termination_ttp_;
}

void Federation::enable_ttp_termination(const ObjectId& object,
                                        std::uint64_t deadline_micros) {
  TerminationTtp& ttp = termination_ttp();
  for (auto& p : parties_) {
    // Skip crashed parties: a restarted coordinator re-enables TTP
    // termination itself by calling this again after recover_party().
    if (!p->coordinator || !p->coordinator->has_object(object)) continue;
    p->coordinator->enable_ttp_termination(
        object,
        Replica::TtpConfig{ttp.id(), ttp.public_key(), deadline_micros});
  }
}

RunHandle Federation::start_deal(const std::string& name,
                                 DealCoordinator::DealSpec spec) {
  return find_party(name).coordinator->start_deal(std::move(spec));
}

void Federation::enable_deal_escape() {
  TerminationTtp& ttp = termination_ttp();
  for (auto& p : parties_) {
    // Skip crashed parties (recover_party callers re-enable afterwards).
    if (!p->coordinator) continue;
    p->coordinator->deals().enable_ttp_escape(
        DealCoordinator::TtpEscape{ttp.id(), ttp.public_key()});
  }
}

EvidenceVerifier Federation::make_verifier() const {
  std::map<PartyId, crypto::RsaPublicKey> keys;
  for (const auto& p : parties_) {
    keys.emplace(p->id, p->coordinator->public_key());
  }
  return EvidenceVerifier(std::move(keys));
}

}  // namespace b2b::core
