// TTP-certified termination (§7).
//
// The base protocol deliberately does not guarantee termination when
// parties misbehave; §7 sketches the remedy this module implements: "the
// imposition of deadlines requires the involvement of a TTP to guarantee
// that all honest parties terminate with the same view of agreed state.
// In effect, a TTP would provide certified abort of a protocol run unless
// a complete set of responses were available (in which case the TTP would
// provide a certified decision derived from those responses)."
//
// Operation: each replica may be configured with a termination TTP and a
// deadline. If a coordination run is still active when its deadline
// expires, the party asks the TTP to terminate it — the proposer attaches
// its (signed) transcript so far, responders attach nothing. The TTP
// issues exactly one signed verdict per run, cached forever: a *certified
// decision* when a complete, verifiable response set was presented, and a
// *certified abort* otherwise. Because every honest party receives the
// same cached verdict, they all terminate with the same view.
//
// A TTP-certified decision replaces the random-authenticator check of a
// normal decide message: the TTP's signature is what authenticates it.
// Recipients still verify every aggregated response and the recipient
// coverage against their own membership view, so a lying requester cannot
// smuggle a partial response set past honest parties.
#pragma once

#include <map>
#include <mutex>
#include <optional>

#include "b2b/evidence.hpp"
#include "b2b/messages.hpp"
#include "net/runtime.hpp"

namespace b2b::core {

struct DealTerminationRequest;  // deal_messages.hpp (includes this header)

/// Party -> TTP: terminate run `proposed` on `object`. A proposer
/// supplies its transcript (propose + responses collected so far) and its
/// recipient list; responders send the identification only.
struct TerminationRequest {
  PartyId requester;
  ObjectId object;
  StateTuple proposed;
  std::optional<ProposeMsg> propose;
  std::vector<RespondMsg> responses;
  std::vector<PartyId> claimed_recipients;

  Bytes signed_bytes() const;
  Bytes encode() const;
  static TerminationRequest decode_fields(BytesView data, Bytes* signature);
  Bytes encode_with_signature(const Bytes& signature) const;
};

/// TTP -> party: the certified verdict for one run.
struct TerminationVerdict {
  enum class Kind : std::uint8_t { kAbort = 1, kDecision = 2 };

  Kind kind = Kind::kAbort;
  ObjectId object;
  StateTuple proposed;
  bool agreed = false;                 // kDecision only
  std::vector<RespondMsg> responses;   // kDecision only
  std::uint64_t time_micros = 0;

  Bytes signed_bytes() const;
  Bytes encode_with_signature(const Bytes& signature) const;
  static TerminationVerdict decode_fields(BytesView data, Bytes* signature);
};

/// The on-line trusted third party. Attach it to a Transport reachable by
/// the organisations; it answers kTerminationRequest envelopes with
/// kTerminationVerdict envelopes and never issues two different verdicts
/// for the same run. The TTP's identity is the transport's bound PartyId.
///
/// Thread-safe: on the socket runtimes the transport delivers requests
/// from a pool thread while accessors run on the caller's thread; an
/// internal mutex serialises message handling, key registration and the
/// verdict cache.
class TerminationTtp {
 public:
  /// `party_keys` must contain every organisation's public key.
  TerminationTtp(net::Transport& transport, net::Clock& clock,
                 crypto::RsaPrivateKey key,
                 std::map<PartyId, crypto::RsaPublicKey> party_keys);

  const PartyId& id() const { return id_; }
  const crypto::RsaPublicKey& public_key() const {
    return key_.public_key();
  }

  /// Add a later-joining organisation's key.
  void add_party_key(const PartyId& party, crypto::RsaPublicKey key);

  std::uint64_t aborts_issued() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return aborts_issued_;
  }
  std::uint64_t decisions_issued() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return decisions_issued_;
  }
  std::uint64_t deal_commits_issued() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return deal_commits_issued_;
  }
  std::uint64_t deal_aborts_issued() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return deal_aborts_issued_;
  }

 private:
  void on_message(const PartyId& from, const Bytes& payload);
  /// Build (or fetch the cached) verdict for a run. Caller holds mutex_.
  const Bytes& verdict_for(const TerminationRequest& request);
  /// Deal-level atomic registration (DESIGN.md §12): certify commit/abort
  /// for the whole leg bundle and write the per-run verdict cache for
  /// every leg in the same critical section, so a concurrent per-run
  /// escape by a parked participant always sees an answer consistent with
  /// the deal outcome. Caller holds mutex_.
  const Bytes& deal_verdict_for(const DealTerminationRequest& request);
  bool transcript_complete_and_valid(const TerminationRequest& request,
                                     bool* agreed) const;

  net::Transport& transport_;
  net::Clock& clock_;
  PartyId id_;
  crypto::RsaPrivateKey key_;
  mutable std::mutex mutex_;
  std::map<PartyId, crypto::RsaPublicKey> party_keys_;
  /// run label -> encoded verdict envelope body (the consistency cache).
  std::map<std::string, Bytes> verdicts_;
  /// run label -> what kind of verdict is cached (so deal registration can
  /// check commit-compatibility without re-decoding the body).
  struct RunVerdictInfo {
    TerminationVerdict::Kind kind;
    bool agreed;
  };
  std::map<std::string, RunVerdictInfo> verdict_info_;
  /// deal id -> encoded DealTerminationVerdict body (same caching rule:
  /// exactly one verdict per deal, forever).
  std::map<std::string, Bytes> deal_verdicts_;
  std::uint64_t aborts_issued_ = 0;
  std::uint64_t decisions_issued_ = 0;
  std::uint64_t deal_commits_issued_ = 0;
  std::uint64_t deal_aborts_issued_ = 0;
};

}  // namespace b2b::core
