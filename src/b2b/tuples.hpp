// State and group identifier tuples (§4.2, §4.5.2).
//
// The state of an object is uniquely identified by the tuple
//   T = (SN, H(r), H(state))
// where SN is a proposal sequence number, r a random number generated by
// the proposer and H the secure hash. SN orders proposals; H(r)
// disambiguates concurrent proposals with the same SN and doubles as the
// commitment to the random authenticator r revealed in the final protocol
// message; H(state) binds the tuple to the state it identifies.
//
// Group membership is identified the same way with H over the ordered
// member list: G = (SN, H(r), H(members)).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "crypto/sha256.hpp"
#include "wire/codec.hpp"

namespace b2b::core {

struct StateTuple {
  std::uint64_t sequence = 0;
  crypto::Digest rand_hash{};   // H(r)
  crypto::Digest state_hash{};  // H(state)

  void encode_into(wire::Encoder& enc) const;
  static StateTuple decode_from(wire::Decoder& dec);
  Bytes encode() const;
  static StateTuple decode(BytesView data);

  /// Short unique label for the protocol run this tuple initiates; used to
  /// file the run's evidence records under (the run index).
  std::string label() const;

  friend bool operator==(const StateTuple&, const StateTuple&) = default;
};

struct GroupTuple {
  std::uint64_t sequence = 0;
  crypto::Digest rand_hash{};     // H(r)
  crypto::Digest members_hash{};  // H(ordered member list)

  void encode_into(wire::Encoder& enc) const;
  static GroupTuple decode_from(wire::Decoder& dec);
  Bytes encode() const;
  static GroupTuple decode(BytesView data);

  std::string label() const;

  friend bool operator==(const GroupTuple&, const GroupTuple&) = default;
};

/// Hash over an ordered member list (order = join order, §4.5.1); the
/// ordering is part of the identity because sponsor selection depends on it.
crypto::Digest hash_members(const std::vector<PartyId>& members);

/// A party's decision on the validity of a proposal: accept, or reject with
/// optional diagnostic information (§4.2 notation D_j).
struct Decision {
  bool accept = false;
  std::string diagnostic;

  static Decision accepted() { return Decision{true, {}}; }
  static Decision rejected(std::string why) {
    return Decision{false, std::move(why)};
  }

  void encode_into(wire::Encoder& enc) const;
  static Decision decode_from(wire::Decoder& dec);

  friend bool operator==(const Decision&, const Decision&) = default;
};

}  // namespace b2b::core
