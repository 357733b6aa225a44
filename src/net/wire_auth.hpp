// Wire v3 session authentication (DESIGN.md §11).
//
// The parties of a socket federation share a PKI (every party holds every other party's
// RSA public key), but until wire v3 the only integrity on the byte
// stream was CRC32 — which an active intruder recomputes at will, so the
// strongest Dolev-Yao attacks (rewriting a live frame's seq/payload,
// forging acks, splicing frames across connections) were deliberately
// out of the §11 campaign's scope. This header closes that boundary:
//
//   * At each dial/accept the sender draws a fresh 32-byte ephemeral
//     half, ships it inside its hello encrypted under the peer's RSA key,
//     and RSA-signs every hello field (auth flag and ciphertext included,
//     frame::hello_signing_bytes) so a strip/downgrade is as detectable
//     as a forgery.
//   * Each direction of a connection is keyed by the *sender's own* half
//     — the dialer can MAC data the instant its hello is on the wire, and
//     the accepter derives the matching verify key while processing that
//     hello, which TCP ordering guarantees arrives first. Keys expand
//     through HKDF (crypto/hmac.hpp) with the flow's (from, to,
//     incarnation) as context, so no two connections — and no two
//     incarnations of the same peer — ever share a key: reconnects rekey.
//   * Every authenticated data/ack payload ends in an HMAC-SHA256 tag
//     over the rest of the payload, verified in CONSTANT TIME before any
//     other processing; a bad tag bumps `frames_rejected_auth` and kills
//     the connection.
//
// The reactor runtime and the raw-socket tests consume exactly this API;
// the policy — reject on mode mismatch in either direction, fail closed
// on missing keys — lives here, apart from the event loop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "net/frame.hpp"

namespace b2b::net {

/// Per-transport session-auth configuration. When `enabled`, both the
/// private key and the peer-key lookup must be set; a lookup returning
/// nullptr fails the handshake closed (unknown parties don't talk).
struct WireAuth {
  bool enabled = false;
  std::shared_ptr<const crypto::RsaPrivateKey> private_key;
  std::function<std::shared_ptr<const crypto::RsaPublicKey>(const PartyId&)>
      peer_key;
};

/// Per-connection, per-direction MAC keys. A direction without a key yet
/// (accepter before its peer's hello arrives) simply has `has_* == false`;
/// the runtimes never send or accept authenticated traffic through an
/// unkeyed direction.
struct ConnKeys {
  crypto::Digest send = {};
  crypto::Digest recv = {};
  bool has_send = false;
  bool has_recv = false;
};

/// Derive the 32-byte MAC key for the `from` → `to` direction of one
/// connection incarnation from the sender's ephemeral half.
crypto::Digest derive_direction_key(BytesView half, const PartyId& from,
                                    const PartyId& to,
                                    std::uint64_t incarnation);

/// Build this side's hello for `self` → `to` at `incarnation`. With auth
/// disabled returns the plain v3 hello. With auth enabled draws a fresh
/// ephemeral half (OS entropy), encrypts it to the peer, signs, and sets
/// `keys->send`/`has_send`. Returns an empty buffer when auth is enabled
/// but the peer's key is unknown — the caller must treat the dial/accept
/// as failed rather than silently downgrade.
Bytes build_hello(const WireAuth& auth, const PartyId& self,
                  const PartyId& to, std::uint64_t incarnation,
                  ConnKeys* keys);

/// Vet a decoded hello against the local auth mode and, with auth on,
/// its signature and key transport. False means the hello is hostile
/// (downgrade/strip, bad signature, undecryptable half, unknown peer) and
/// the connection must die. On success with auth enabled sets
/// `keys->recv`/`has_recv`. Magic/version/direction checks remain the
/// caller's (they predate auth and feed the same rejection counter).
bool accept_hello(const WireAuth& auth, const PartyId& self,
                  const frame::Hello& hello, ConnKeys* keys);

/// Append the HMAC-SHA256 tag over `payload` in place.
void append_mac(Bytes& payload, const crypto::Digest& key);

/// Constant-time-verify the trailing tag of `payload`; on success `*body`
/// is the payload with the tag stripped. False on short input or mismatch.
bool verify_strip_mac(BytesView payload, const crypto::Digest& key,
                      BytesView* body);

}  // namespace b2b::net
