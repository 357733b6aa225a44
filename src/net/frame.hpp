// Wire marshalling for the socket runtime.
//
// ReactorRuntime's byte stream: every message is a length-prefixed
// CRC-framed frame, the first frame in each direction is a handshake
// naming the sending party and its incarnation, and data/ack frames
// carry the §4.2 positive-acknowledgement sequence numbers. The encoding
// lives apart from the event loop so the intruder proxy and the
// raw-socket tests speak exactly the bytes the runtime does. In Basic
// Remoting Patterns terms this header is the MARSHALLER, the reactor is
// the SERVER REQUEST HANDLER (how bytes reach the process), and the
// coordinator above it is the INVOKER.
//
// Wire v2 (intruder hardening, DESIGN.md §11): data and ack frames name
// the incarnation their sequence number belongs to. Sequence numbers are
// only meaningful *within* one transport incarnation, so an unbound seq
// let a man-in-the-middle re-inject a recorded pre-restart frame into a
// post-restart connection and poison the fresh dedup window (the stale
// frame's seq would be marked delivered, silently suppressing — and
// falsely acking — the restarted peer's genuine frame with that seq).
// Binding (incarnation, seq) together makes such re-injection detectable
// at the receiver: a data frame whose incarnation differs from the
// connection's handshaken incarnation is proof of splicing and kills the
// connection; an ack that does not echo our own incarnation is ignored.
//
// Wire v3 (session authentication, DESIGN.md §11): the hello carries an
// auth flag and, when set, an RSA-encrypted ephemeral key half plus an
// RSA signature over every preceding hello field — stripping or flipping
// the flag breaks the signature, so a downgrade is detectable, and each
// side's half seeds the HMAC key for the frames *it* sends (wire_auth.hpp).
// Authenticated data/ack payloads end in a 32-byte HMAC-SHA256 tag over
// the rest of the payload, verified in constant time before any parsing.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "store/crc32.hpp"
#include "wire/codec.hpp"

namespace b2b::net::frame {

/// Frame payload types (first byte of every decoded payload).
constexpr std::uint8_t kData = 0;
constexpr std::uint8_t kAck = 1;
constexpr std::uint8_t kHello = 2;

/// Handshake magic ("B2BT") and protocol version.
constexpr std::uint32_t kMagic = 0x42'32'42'54;
constexpr std::uint16_t kVersion = 3;

/// Length of the HMAC-SHA256 tag that terminates every authenticated
/// data/ack payload.
constexpr std::size_t kMacLen = 32;

/// Hello auth-flag values (the u8 after the incarnation).
constexpr std::uint8_t kAuthNone = 0;
constexpr std::uint8_t kAuthHmac = 1;

/// Stream framing: [u32 len LE][u32 crc32 LE][payload].
constexpr std::size_t kHeaderLen = 8;

/// Hard ceiling on any length prefix a decoder will honour, shared by
/// every frame-parsing endpoint (reactor, intruder proxy). Configs
/// may lower the limit per transport (max_frame_bytes) but can never
/// raise it past this: a hostile 0xFFFFFFFF prefix must be rejected
/// before it becomes a 4 GiB allocation.
constexpr std::uint32_t kMaxFrameLen = 64u << 20;

inline void put_u32_le(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

inline std::uint32_t get_u32_le(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

/// Decode and vet the 8-byte stream header. Returns false when the
/// length prefix exceeds `limit` or the shared hard cap — the caller
/// must treat the stream as hostile (reset the connection and bump its
/// rejection counter) instead of allocating the claimed length.
struct Header {
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
};
inline bool decode_header(const std::uint8_t* in, std::size_t limit,
                          Header* out) {
  out->len = get_u32_le(in);
  out->crc = get_u32_le(in + 4);
  return out->len <= kMaxFrameLen && out->len <= limit;
}

inline Bytes encode_data(std::uint64_t incarnation, std::uint64_t seq,
                         BytesView payload) {
  wire::Encoder enc;
  enc.u8(kData).u64(incarnation).u64(seq).blob(payload);
  return std::move(enc).take();
}

/// Acks echo the *data sender's* incarnation (the one the acked seq
/// lives in), so a replayed ack from a previous incarnation can never
/// retire a live message.
inline Bytes encode_ack(std::uint64_t incarnation, std::uint64_t seq) {
  wire::Encoder enc;
  enc.u8(kAck).u64(incarnation).u64(seq);
  return std::move(enc).take();
}

/// Unauthenticated hello (auth flag 0, no key material). Kept as the
/// three-argument form the pre-v3 call sites and tests use.
inline Bytes encode_hello(const PartyId& from, const PartyId& to,
                          std::uint64_t incarnation) {
  wire::Encoder enc;
  enc.u8(kHello).u32(kMagic).u16(kVersion).str(from.str()).str(to.str());
  enc.u64(incarnation).u8(kAuthNone);
  return std::move(enc).take();
}

/// The canonical bytes an authenticated hello's RSA signature covers:
/// every field that precedes the signature, auth flag and encrypted key
/// half included, so stripping either is as detectable as forging them.
inline Bytes hello_signing_bytes(const PartyId& from, const PartyId& to,
                                 std::uint64_t incarnation,
                                 BytesView enc_half) {
  wire::Encoder enc;
  enc.u32(kMagic).u16(kVersion).str(from.str()).str(to.str());
  enc.u64(incarnation).u8(kAuthHmac).blob(enc_half);
  return std::move(enc).take();
}

/// Authenticated hello: flag 1, RSA-encrypted ephemeral half, signature
/// over hello_signing_bytes().
inline Bytes encode_hello_auth(const PartyId& from, const PartyId& to,
                               std::uint64_t incarnation, BytesView enc_half,
                               BytesView signature) {
  wire::Encoder enc;
  enc.u8(kHello).u32(kMagic).u16(kVersion).str(from.str()).str(to.str());
  enc.u64(incarnation).u8(kAuthHmac).blob(enc_half).blob(signature);
  return std::move(enc).take();
}

/// Hello fields after the type byte. `decode_hello` assumes the caller
/// already consumed the leading u8 (the frame type); it validates nothing
/// beyond wire shape — magic/version/direction checks stay with the
/// runtimes so their rejection counters see them.
struct Hello {
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::string from;
  std::string to;
  std::uint64_t incarnation = 0;
  std::uint8_t auth_flag = kAuthNone;
  Bytes enc_half;    // RSA ciphertext of the sender's ephemeral half
  Bytes signature;   // RSA signature over hello_signing_bytes()
};
inline Hello decode_hello(wire::Decoder& dec) {
  Hello h;
  h.magic = dec.u32();
  h.version = dec.u16();
  h.from = dec.str();
  h.to = dec.str();
  h.incarnation = dec.u64();
  h.auth_flag = dec.u8();
  if (h.auth_flag == kAuthHmac) {
    h.enc_half = dec.blob();
    h.signature = dec.blob();
  }
  dec.expect_done();
  return h;
}

/// Prepend the stream header ([len][crc32]) to an encoded payload.
inline Bytes frame_payload(const Bytes& payload) {
  Bytes framed(kHeaderLen + payload.size());
  put_u32_le(framed.data(), static_cast<std::uint32_t>(payload.size()));
  put_u32_le(framed.data() + 4, store::crc32(payload));
  std::copy(payload.begin(), payload.end(), framed.begin() + kHeaderLen);
  return framed;
}

}  // namespace b2b::net::frame
