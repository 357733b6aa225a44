// PeerDirectory: party -> host:port, the out-of-band address registry a
// TCP federation shares.
//
// The paper's organisations learn each other's endpoints as part of the
// initial business agreement; here that is a config file (one
// `party host:port` per line) or programmatic set() calls. Port 0 means
// "ephemeral": ReactorRuntime::add_party binds such a party to a kernel-
// chosen port and writes the actual one back, so a single shared
// directory instance lets later parties dial earlier ones in tests.
// Thread-safe: transports look addresses up from their worker threads
// while a harness is still registering parties.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"

namespace b2b::net {

struct PeerAddress {
  std::string host;
  std::uint16_t port = 0;
};

class PeerDirectory {
 public:
  PeerDirectory() = default;
  PeerDirectory(const PeerDirectory& other);
  PeerDirectory& operator=(const PeerDirectory& other);

  void set(const PartyId& party, PeerAddress address);
  std::optional<PeerAddress> lookup(const PartyId& party) const;

  /// All entries, in party-name order (the order also used for key
  /// assignment by b2bnode).
  std::vector<std::pair<PartyId, PeerAddress>> entries() const;
  std::size_t size() const;

  /// Parse `party host:port` lines; '#' starts a comment, blank lines
  /// are skipped. Throws b2b::Error on malformed input.
  static PeerDirectory parse(const std::string& text);

  /// Load from a config file. Throws b2b::Error if unreadable/malformed.
  static PeerDirectory load_file(const std::string& path);

  /// Render back to the config-file format.
  std::string to_string() const;

 private:
  mutable std::mutex mutex_;
  std::map<PartyId, PeerAddress> entries_;
};

}  // namespace b2b::net
