// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the secure one-way, collision-resistant hash H the paper assumes
// in §4.2. It is used everywhere evidence is built: state hashes in state
// identifier tuples, member hashes in group identifier tuples, hashes of
// random authenticators, and the hash chain of the evidence log.
//
// The compression function has two implementations: portable C++, and one
// on the x86 SHA extensions (SHA-NI), chosen once from the CPU at run time.
// Both give the same digests; the portable one is the reference.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace b2b::crypto {

/// A 32-byte SHA-256 digest.
using Digest = std::array<std::uint8_t, 32>;

namespace detail {

/// The eight chaining words a..h carried from block to block.
using Sha256State = std::array<std::uint32_t, 8>;

/// Compresses `count` whole 64-byte blocks at `data` into `state`, in
/// portable C++: the reference, and the fallback on every other CPU.
void sha256_blocks_portable(Sha256State& state, const std::uint8_t* data,
                            std::size_t count);

#if defined(__x86_64__)
/// The same on the x86 SHA extensions. Call only when cpu_has_sha_ni().
void sha256_blocks_sha_ni(Sha256State& state, const std::uint8_t* data,
                          std::size_t count);
#endif

/// True when this CPU has the SHA extensions and SSE4.1, in which case
/// Sha256 uses sha256_blocks_sha_ni. Decided once per process; always false
/// off x86-64.
bool cpu_has_sha_ni();

}  // namespace detail

/// Streaming SHA-256. Typical use: Sha256 h; h.update(a); h.update(b);
/// Digest d = h.finish();
class Sha256 {
 public:
  Sha256();

  /// Absorb more input. May be called any number of times before finish().
  Sha256& update(BytesView data);

  /// Finalize and return the digest. The object must not be reused after
  /// finish() without calling reset().
  Digest finish();

  /// Return to the initial state.
  void reset();

  /// One-shot convenience.
  static Digest hash(BytesView data);

 private:
  void process_blocks(const std::uint8_t* data, std::size_t count);

  detail::Sha256State state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Digest <-> Bytes helpers (wire format uses plain byte strings).
Bytes digest_bytes(const Digest& digest);
Digest digest_from_bytes(BytesView data);  // throws CodecError if size != 32

}  // namespace b2b::crypto
