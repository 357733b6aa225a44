// Arbitrary-precision unsigned integers.
//
// This is the numeric substrate for the RSA signature scheme the paper's
// non-repudiation evidence relies on (§4.2 assumes a verifiable, unforgeable
// signature scheme). Only non-negative values are supported because RSA and
// the auxiliary number theory (gcd, modular inverse, Miller-Rabin) never
// need negatives; operator- therefore requires a >= b and throws otherwise.
//
// Representation: little-endian vector of 64-bit limbs, normalized so the
// most significant limb is non-zero (zero is the empty vector).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"

namespace b2b::crypto {

class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  /// From a machine word.
  BigInt(std::uint64_t value);  // NOLINT(google-explicit-constructor)

  /// Big-endian byte-string conversions (the wire format for keys and
  /// signatures). from_bytes_be accepts leading zero bytes.
  static BigInt from_bytes_be(BytesView bytes);
  /// Minimal-length big-endian bytes (empty for zero).
  Bytes to_bytes_be() const;
  /// Fixed-width big-endian bytes, left-padded with zeros. Throws if the
  /// value does not fit.
  Bytes to_bytes_be(std::size_t width) const;

  /// Hex (no 0x prefix) and decimal conversions, mainly for tests/debugging.
  static BigInt from_hex(std::string_view hex);
  std::string to_hex() const;
  static BigInt from_decimal(std::string_view dec);
  std::string to_decimal() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1) != 0; }
  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;
  /// Value of bit `i` (false beyond bit_length).
  bool bit(std::size_t i) const;

  std::size_t limb_count() const { return limbs_.size(); }
  std::uint64_t limb(std::size_t i) const {
    return i < limbs_.size() ? limbs_[i] : 0;
  }

  /// Low 64 bits of the value.
  std::uint64_t low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  // Arithmetic. operator- throws std::invalid_argument when *this < rhs.
  BigInt operator+(const BigInt& rhs) const;
  BigInt operator-(const BigInt& rhs) const;
  BigInt operator*(const BigInt& rhs) const;
  BigInt operator/(const BigInt& rhs) const;
  BigInt operator%(const BigInt& rhs) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  BigInt& operator+=(const BigInt& rhs) { return *this = *this + rhs; }
  BigInt& operator-=(const BigInt& rhs) { return *this = *this - rhs; }
  BigInt& operator*=(const BigInt& rhs) { return *this = *this * rhs; }

  struct DivMod;
  /// Quotient and remainder in one division (Knuth algorithm D).
  /// Throws std::domain_error on division by zero.
  static DivMod divmod(const BigInt& numerator, const BigInt& denominator);

  friend bool operator==(const BigInt& a, const BigInt& b) {
    return a.limbs_ == b.limbs_;
  }
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);

 private:
  friend class MontgomeryContext;  // moves raw limbs in and out

  void normalize();

  std::vector<std::uint64_t> limbs_;
};

/// Result of BigInt::divmod.
struct BigInt::DivMod {
  BigInt quotient;
  BigInt remainder;
};

/// Greatest common divisor (binary-free Euclid; fine at RSA sizes).
BigInt gcd(BigInt a, BigInt b);

/// Least common multiple. Throws std::domain_error if either input is zero.
BigInt lcm(const BigInt& a, const BigInt& b);

/// Modular inverse of `a` mod `m`. Throws b2b::CryptoError when the inverse
/// does not exist (gcd(a, m) != 1).
BigInt mod_inverse(const BigInt& a, const BigInt& m);

/// base^exponent mod modulus without a cached context. Builds a
/// MontgomeryContext when the modulus is odd and fits one (the RSA case),
/// plain square-and-multiply otherwise. Throws std::domain_error for
/// modulus == 0.
BigInt mod_exp(const BigInt& base, const BigInt& exponent,
               const BigInt& modulus);

namespace detail {

/// A CIOS Montgomery multiply over raw little-endian limbs: out = a * b *
/// R^-1 mod `mod`, for a `width`-limb odd `mod` with n0_inv = -mod^-1 mod
/// 2^64, R = 2^(64 * width) and a, b < mod. `out` may alias `a`, `b` or
/// both; the scratch is on the stack.
using MontMulKernel = void (*)(std::uint64_t* out, const std::uint64_t* a,
                               const std::uint64_t* b,
                               const std::uint64_t* mod, std::uint64_t n0_inv,
                               std::size_t width);

/// The portable C++ multiply for `width`: one template body, compiled at
/// that width for 4 and 8 limbs and at run-time width for every other.
/// The reference, and the fallback on every other CPU.
MontMulKernel mont_mul_portable(std::size_t width);

/// The same on MULX/ADCX/ADOX, written out in assembly at 4 and 8 limbs
/// for x86-64 ELF targets; nullptr at every other width and on every
/// other target. Call only when cpu_has_adx().
MontMulKernel mont_mul_adx(std::size_t width);

/// True when this CPU has BMI2 and ADX, in which case MontgomeryContext
/// uses mont_mul_adx wherever it is not nullptr. Decided once per process;
/// always false off x86-64.
bool cpu_has_adx();

}  // namespace detail

/// Montgomery arithmetic modulo one odd modulus, built once and reused:
/// RSA keys hold one per modulus (p, q and n), Miller-Rabin one per
/// candidate. Immutable after construction; every operation keeps its
/// scratch on the caller's stack, so any number of threads may share one
/// context without a lock.
class MontgomeryContext {
 public:
  /// Widest modulus supported, in 64-bit limbs (4096 bits); this bounds
  /// the stack scratch of pow() and of the run-time-width multiply.
  static constexpr std::size_t kMaxLimbs = 64;

  /// Throws std::invalid_argument unless modulus is odd, > 1 and at most
  /// kMaxLimbs limbs wide.
  explicit MontgomeryContext(const BigInt& modulus);

  const BigInt& modulus() const { return modulus_; }

  /// Convert into / out of Montgomery form.
  BigInt to_mont(const BigInt& value) const;
  BigInt from_mont(const BigInt& value) const;

  /// Montgomery product of two values already in Montgomery form (< modulus).
  BigInt mul(const BigInt& a, const BigInt& b) const;

  /// base^exponent mod modulus (inputs/outputs in ordinary form). Exponents
  /// up to 64 bits (e = 65537) use square-and-multiply; longer ones a fixed
  /// 4-bit window that multiplies on every digit, zero included, so the
  /// sequence of multiplications depends only on the exponent's length.
  BigInt pow(const BigInt& base, const BigInt& exponent) const;

 private:
  /// out = a * b * R^-1 mod modulus over limbs_-wide arrays; `out` may
  /// alias `a`, `b` or both.
  void mul_limbs(std::uint64_t* out, const std::uint64_t* a,
                 const std::uint64_t* b) const {
    mul_(out, a, b, modulus_.limbs_.data(), n0_inv_, limbs_);
  }
  /// Copy `value` (< modulus) into a limbs_-wide array, and back.
  void load(std::uint64_t* out, const BigInt& value) const;
  BigInt store(const std::uint64_t* limbs) const;

  BigInt modulus_;
  std::size_t limbs_;       // width of the modulus in limbs
  std::uint64_t n0_inv_;    // -modulus^{-1} mod 2^64
  // The multiply for this width, picked once here. At 4 and 8 limbs (the
  // CRT halves and modulus of an RSA-512 key, the size the benchmark
  // runs) it is the MULX/ADX kernel when the CPU has BMI2 and ADX, else
  // the portable template compiled at that width; every other modulus
  // runs the template at run-time width.
  detail::MontMulKernel mul_;
  std::vector<std::uint64_t> one_;  // R mod modulus (Montgomery form of 1)
  std::vector<std::uint64_t> r2_;   // R^2 mod modulus: into Montgomery form
};

}  // namespace b2b::crypto
