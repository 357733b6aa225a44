// Baseline: plain (non-non-repudiable) two-phase-commit state replication.
//
// §4.3 describes the B2BObjects protocol as "in essence ... non-repudiable
// two-phase commit". This module is the same propose/vote/decide shape
// with everything the paper adds stripped away: no signatures, no state
// identifier tuples, no random authenticators, no evidence logging and no
// time-stamping. Application-level validation is retained (the same
// B2BObject upcall) so a comparison measures exactly the cost of the
// dependability machinery (bench E9), not a different workload.
//
// It shares the transport abstraction (net::Transport, usually backed by
// the same ReliableEndpoint/SimNetwork substrate as the full protocol), so
// byte and message counts are directly comparable.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "b2b/object.hpp"
#include "b2b/replica.hpp"
#include "net/runtime.hpp"

namespace b2b::baseline {

/// Reuses core::RunResult so callers drive both stacks identically.
using core::RunHandle;
using core::RunResult;

/// Thread-safe on the socket runtimes: an internal mutex serialises
/// propose_state() against transport-thread message delivery.
class PlainReplica {
 public:
  PlainReplica(PartyId self, ObjectId object, core::B2BObject& impl,
               net::Transport& transport);

  /// Out-of-band genesis, mirroring Replica::bootstrap.
  void bootstrap(std::vector<PartyId> members, const Bytes& initial_state);

  /// Propose replacing the shared state (the object already holds it).
  RunHandle propose_state(Bytes new_state);

  std::vector<PartyId> members() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return members_;
  }
  std::uint64_t agreed_sequence() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return agreed_seq_;
  }
  Bytes agreed_state() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return agreed_state_;
  }

  /// Protocol messages sent (for complexity comparison).
  std::uint64_t messages_sent() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return messages_sent_;
  }
  std::uint64_t bytes_sent() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_sent_;
  }

 private:
  void on_message(const PartyId& from, const Bytes& payload);
  void handle_propose(const PartyId& from, std::uint64_t seq,
                      const Bytes& state);
  void handle_vote(const PartyId& from, std::uint64_t seq, bool accept,
                   const std::string& diagnostic);
  void handle_decision(const PartyId& from, std::uint64_t seq, bool commit);
  void send(const PartyId& to, const Bytes& payload);

  PartyId self_;
  ObjectId object_;
  core::B2BObject& impl_;
  net::Transport& transport_;
  mutable std::mutex mutex_;

  std::vector<PartyId> members_;
  std::uint64_t agreed_seq_ = 0;
  Bytes agreed_state_;
  std::uint64_t last_seen_seq_ = 0;

  struct ProposerRun {
    std::uint64_t seq = 0;
    Bytes new_state;
    std::map<PartyId, bool> votes;
    std::vector<PartyId> vetoers;
    std::string first_diagnostic;
    std::size_t expected = 0;
    RunHandle result;
  };
  std::optional<ProposerRun> proposer_run_;

  struct ResponderRun {
    PartyId proposer;
    Bytes pending_state;
    bool accepted = false;
  };
  std::map<std::uint64_t, ResponderRun> responder_runs_;

  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace b2b::baseline
