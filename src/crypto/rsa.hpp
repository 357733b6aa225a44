// RSA signatures (from-scratch), the signature scheme of §4.2.
//
// Every protocol message part that the paper writes as sig_i(x) is an RSA
// signature over SHA-256(x) with EMSA-PKCS1-v1_5-style padding. Signatures
// are therefore verifiable by any third party holding only the signer's
// public key — which is exactly what makes the evidence non-repudiable and
// usable in the extra-protocol dispute resolution the paper describes.
//
// Key generation uses Miller-Rabin probable primes from the ChaCha20 CSPRNG
// and Chinese-Remainder-Theorem signing for speed. Each key builds one
// Montgomery context per modulus (n; p and q) when it is constructed;
// copies share them, and every operation keeps its scratch on the caller's
// stack, so any number of threads can sign or verify with one key at once.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/bigint.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"

namespace b2b::crypto {

/// Public half of an RSA keypair: (n, e). Serializable for distribution.
class RsaPublicKey {
 public:
  /// Smallest modulus, in bytes, that fits a PKCS#1 v1.5 SHA-256 signature.
  static constexpr std::size_t kMinModulusBytes = 62;

  RsaPublicKey() = default;
  /// Throws std::invalid_argument unless n is zero (the empty key) or odd,
  /// > 1 and at most 4096 bits.
  RsaPublicKey(BigInt n, BigInt e);

  const BigInt& n() const { return n_; }
  const BigInt& e() const { return e_; }
  /// Modulus size in bytes; all signatures have exactly this length.
  std::size_t modulus_bytes() const { return (n_.bit_length() + 7) / 8; }

  /// Verify `signature` over SHA-256(message). Returns false on any
  /// mismatch, and for a key too small to carry a signature; never throws.
  bool verify(BytesView message, BytesView signature) const;

  /// Verify a signature over a precomputed digest.
  bool verify_digest(const Digest& digest, BytesView signature) const;

  /// RSAES-PKCS1-v1_5 encryption (type-2 random nonzero padding) for
  /// small key-transport payloads — wire v3 ships each connection's
  /// ephemeral MAC half under the peer's public key this way.
  /// Ciphertext length == modulus_bytes(). Throws CryptoError when
  /// `plaintext` exceeds modulus_bytes() - 11.
  Bytes encrypt(BytesView plaintext, ChaCha20Rng& rng) const;

  Bytes encode() const;
  /// Throws CodecError on malformed bytes and on a modulus that is even,
  /// shorter than kMinModulusBytes or wider than 4096 bits.
  static RsaPublicKey decode(BytesView data);

  friend bool operator==(const RsaPublicKey& a, const RsaPublicKey& b) {
    return a.n_ == b.n_ && a.e_ == b.e_;
  }

 private:
  BigInt n_;
  BigInt e_;
  std::shared_ptr<const MontgomeryContext> mont_n_;  // null for the empty key
};

/// Full keypair. The private exponent never leaves this object.
class RsaPrivateKey {
 public:
  RsaPrivateKey() = default;
  RsaPrivateKey(BigInt n, BigInt e, BigInt d, BigInt p, BigInt q);

  const RsaPublicKey& public_key() const { return public_key_; }

  /// Sign SHA-256(message). Result length == modulus_bytes().
  Bytes sign(BytesView message) const;

  /// Sign a precomputed digest.
  Bytes sign_digest(const Digest& digest) const;

  /// Undo RSAES-PKCS1-v1_5 encryption. Returns nullopt on any length or
  /// padding mismatch — the transport treats that as a hostile hello and
  /// kills the connection rather than distinguishing failure modes.
  std::optional<Bytes> decrypt(BytesView ciphertext) const;

 private:
  /// x^d mod n by CRT: two half-size exponentiations recombined.
  BigInt crt_exp(const BigInt& x) const;

  RsaPublicKey public_key_;
  BigInt d_;
  // CRT components for ~4x faster signing.
  BigInt p_, q_, d_p_, d_q_, q_inv_;
  std::shared_ptr<const MontgomeryContext> mont_p_, mont_q_;
};

/// Generate a keypair with an n of `bits` bits (e = 65537).
/// `bits` must be in [512, 4096]; tests use 512 for speed, benches go larger.
RsaPrivateKey generate_rsa_keypair(std::size_t bits, ChaCha20Rng& rng);

/// Miller-Rabin probable-prime test with `rounds` random bases.
bool is_probable_prime(const BigInt& candidate, ChaCha20Rng& rng,
                       int rounds = 20);

/// Random probable prime of exactly `bits` bits (top two bits set so that
/// the product of two such primes has exactly 2*bits bits).
BigInt generate_prime(std::size_t bits, ChaCha20Rng& rng);

}  // namespace b2b::crypto
