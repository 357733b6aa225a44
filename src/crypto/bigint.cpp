#include "crypto/bigint.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "common/error.hpp"

namespace b2b::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("BigInt::from_hex: invalid character");
}

// Eight big-endian bytes as one limb, and back.
u64 load_be64(const std::uint8_t* bytes) {
  u64 value = 0;
  std::memcpy(&value, bytes, sizeof value);
  if constexpr (std::endian::native == std::endian::little) {
    value = __builtin_bswap64(value);
  }
  return value;
}

void store_be64(std::uint8_t* bytes, u64 value) {
  if constexpr (std::endian::native == std::endian::little) {
    value = __builtin_bswap64(value);
  }
  std::memcpy(bytes, &value, sizeof value);
}

}  // namespace

BigInt::BigInt(u64 value) {
  if (value != 0) limbs_.push_back(value);
}

void BigInt::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::from_bytes_be(BytesView bytes) {
  // Limb i holds the eight bytes that end 8 * i bytes before the last; the
  // top limb takes whatever is left over at the front.
  BigInt out;
  out.limbs_.resize((bytes.size() + 7) / 8);
  std::size_t end = bytes.size();
  for (u64& limb : out.limbs_) {
    if (end >= 8) {
      end -= 8;
      limb = load_be64(bytes.data() + end);
    } else {
      for (std::size_t i = 0; i < end; ++i) limb = (limb << 8) | bytes[i];
      end = 0;
    }
  }
  out.normalize();
  return out;
}

Bytes BigInt::to_bytes_be() const {
  if (is_zero()) return {};
  std::size_t bytes = (bit_length() + 7) / 8;
  return to_bytes_be(bytes);
}

Bytes BigInt::to_bytes_be(std::size_t width) const {
  if (bit_length() > width * 8) {
    throw std::invalid_argument("BigInt::to_bytes_be: value too large");
  }
  // Whole limbs from the back. A top limb that straddles the front writes
  // only its low bytes: the value fits, so its high bytes are zero.
  Bytes out(width, 0);
  std::size_t end = width;
  for (u64 limb : limbs_) {
    if (end >= 8) {
      end -= 8;
      store_be64(out.data() + end, limb);
    } else {
      for (; end > 0; limb >>= 8) out[--end] = static_cast<std::uint8_t>(limb);
    }
  }
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  BigInt out;
  for (char c : hex) {
    out = (out << 4) + BigInt(static_cast<u64>(hex_value(c)));
  }
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  std::string out;
  bool leading = true;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      int digit = static_cast<int>((limbs_[i] >> shift) & 0xf);
      if (leading && digit == 0) continue;
      leading = false;
      out.push_back("0123456789abcdef"[digit]);
    }
  }
  return out;
}

BigInt BigInt::from_decimal(std::string_view dec) {
  BigInt out;
  BigInt ten(10);
  for (char c : dec) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("BigInt::from_decimal: invalid character");
    }
    out = out * ten + BigInt(static_cast<u64>(c - '0'));
  }
  return out;
}

std::string BigInt::to_decimal() const {
  if (is_zero()) return "0";
  std::string out;
  BigInt value = *this;
  BigInt ten(10);
  while (!value.is_zero()) {
    auto [q, r] = divmod(value, ten);
    out.push_back(static_cast<char>('0' + r.low_u64()));
    value = q;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  return limbs_.size() * 64 -
         static_cast<std::size_t>(std::countl_zero(limbs_.back()));
}

bool BigInt::bit(std::size_t i) const {
  std::size_t limb_index = i / 64;
  if (limb_index >= limbs_.size()) return false;
  return ((limbs_[limb_index] >> (i % 64)) & 1) != 0;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() <=> b.limbs_.size();
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] <=> b.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigInt BigInt::operator+(const BigInt& rhs) const {
  BigInt out;
  std::size_t n = std::max(limbs_.size(), rhs.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u128 sum = static_cast<u128>(limb(i)) + rhs.limb(i) + carry;
    out.limbs_[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  out.limbs_[n] = carry;
  out.normalize();
  return out;
}

BigInt BigInt::operator-(const BigInt& rhs) const {
  if (*this < rhs) {
    throw std::invalid_argument("BigInt::operator-: negative result");
  }
  BigInt out;
  out.limbs_.resize(limbs_.size(), 0);
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u128 lhs_limb = limbs_[i];
    u128 sub = static_cast<u128>(rhs.limb(i)) + borrow;
    if (lhs_limb >= sub) {
      out.limbs_[i] = static_cast<u64>(lhs_limb - sub);
      borrow = 0;
    } else {
      out.limbs_[i] = static_cast<u64>((static_cast<u128>(1) << 64) +
                                       lhs_limb - sub);
      borrow = 1;
    }
  }
  out.normalize();
  return out;
}

BigInt BigInt::operator*(const BigInt& rhs) const {
  if (is_zero() || rhs.is_zero()) return {};
  BigInt out;
  out.limbs_.assign(limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      u128 cur = static_cast<u128>(limbs_[i]) * rhs.limbs_[j] +
                 out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out.limbs_[i + rhs.limbs_.size()] += carry;
  }
  out.normalize();
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    BigInt out = *this;
    if (bits == 0) return out;
  }
  if (is_zero()) return {};
  std::size_t limb_shift = bits / 64;
  std::size_t bit_shift = bits % 64;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.normalize();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  std::size_t limb_shift = bits / 64;
  std::size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return {};
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.normalize();
  return out;
}

BigInt::DivMod BigInt::divmod(const BigInt& numerator,
                              const BigInt& denominator) {
  if (denominator.is_zero()) {
    throw std::domain_error("BigInt::divmod: division by zero");
  }
  if (numerator < denominator) {
    return {BigInt{}, numerator};
  }
  // Single-limb divisor: simple short division.
  if (denominator.limbs_.size() == 1) {
    u64 d = denominator.limbs_[0];
    BigInt quotient;
    quotient.limbs_.assign(numerator.limbs_.size(), 0);
    u64 rem = 0;
    for (std::size_t i = numerator.limbs_.size(); i-- > 0;) {
      u128 cur = (static_cast<u128>(rem) << 64) | numerator.limbs_[i];
      quotient.limbs_[i] = static_cast<u64>(cur / d);
      rem = static_cast<u64>(cur % d);
    }
    quotient.normalize();
    return {quotient, BigInt(rem)};
  }

  // Knuth algorithm D. Normalize so the divisor's top limb has its high
  // bit set; this guarantees the quotient-digit estimate is off by at
  // most 2 and the correction loop below terminates.
  int shift = 0;
  {
    u64 top = denominator.limbs_.back();
    while ((top & (static_cast<u64>(1) << 63)) == 0) {
      top <<= 1;
      ++shift;
    }
  }
  BigInt u = numerator << shift;
  BigInt v = denominator << shift;
  std::size_t n = v.limbs_.size();
  std::size_t m = u.limbs_.size() - n;
  u.limbs_.push_back(0);  // u has m + n + 1 limbs

  BigInt quotient;
  quotient.limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate q_hat = (u[j+n] * B + u[j+n-1]) / v[n-1].
    u128 numer = (static_cast<u128>(u.limbs_[j + n]) << 64) | u.limbs_[j + n - 1];
    u128 q_hat = numer / v.limbs_[n - 1];
    u128 r_hat = numer % v.limbs_[n - 1];
    constexpr u128 kBase = static_cast<u128>(1) << 64;
    while (q_hat >= kBase ||
           q_hat * v.limbs_[n - 2] > ((r_hat << 64) | u.limbs_[j + n - 2])) {
      --q_hat;
      r_hat += v.limbs_[n - 1];
      if (r_hat >= kBase) break;
    }
    // Multiply-and-subtract: u[j..j+n] -= q_hat * v.
    u128 borrow = 0;
    u128 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u128 product = q_hat * v.limbs_[i] + carry;
      carry = product >> 64;
      u64 product_lo = static_cast<u64>(product);
      u128 diff = static_cast<u128>(u.limbs_[j + i]) - product_lo - borrow;
      u.limbs_[j + i] = static_cast<u64>(diff);
      borrow = (diff >> 64) & 1;  // 1 if we wrapped
    }
    u128 diff = static_cast<u128>(u.limbs_[j + n]) - carry - borrow;
    u.limbs_[j + n] = static_cast<u64>(diff);
    bool negative = ((diff >> 64) & 1) != 0;

    if (negative) {
      // q_hat was one too large: add back one multiple of v.
      --q_hat;
      u128 add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u128 sum = static_cast<u128>(u.limbs_[j + i]) + v.limbs_[i] + add_carry;
        u.limbs_[j + i] = static_cast<u64>(sum);
        add_carry = sum >> 64;
      }
      u.limbs_[j + n] = static_cast<u64>(u.limbs_[j + n] + add_carry);
    }
    quotient.limbs_[j] = static_cast<u64>(q_hat);
  }

  quotient.normalize();
  u.limbs_.resize(n);
  u.normalize();
  BigInt remainder = u >> shift;
  return {quotient, remainder};
}

BigInt BigInt::operator/(const BigInt& rhs) const {
  return divmod(*this, rhs).quotient;
}

BigInt BigInt::operator%(const BigInt& rhs) const {
  return divmod(*this, rhs).remainder;
}

BigInt gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = b;
    b = r;
  }
  return a;
}

BigInt lcm(const BigInt& a, const BigInt& b) {
  if (a.is_zero() || b.is_zero()) {
    throw std::domain_error("lcm of zero");
  }
  return (a / gcd(a, b)) * b;
}

BigInt mod_inverse(const BigInt& a, const BigInt& m) {
  // Extended Euclid tracking only the coefficient of `a`, with values kept
  // non-negative by representing the coefficient pair as (value, sign).
  if (m.is_zero()) throw std::domain_error("mod_inverse: zero modulus");
  BigInt r0 = m;
  BigInt r1 = a % m;
  // s pairs: coefficient of a modulo m; track as non-negative with sign.
  BigInt s0;          // 0
  BigInt s1(1);       // 1
  bool s0_neg = false;
  bool s1_neg = false;

  while (!r1.is_zero()) {
    auto [q, r2] = BigInt::divmod(r0, r1);
    // s2 = s0 - q * s1 with signs.
    BigInt qs1 = q * s1;
    BigInt s2;
    bool s2_neg = false;
    if (s0_neg == s1_neg) {
      // s0 and q*s1 have the same sign: s2 = |s0| - |q s1| (sign flips if
      // the subtraction would go negative).
      if (s0 >= qs1) {
        s2 = s0 - qs1;
        s2_neg = s0_neg;
      } else {
        s2 = qs1 - s0;
        s2_neg = !s0_neg;
      }
    } else {
      s2 = s0 + qs1;
      s2_neg = s0_neg;
    }
    r0 = r1;
    r1 = r2;
    s0 = s1;
    s0_neg = s1_neg;
    s1 = s2;
    s1_neg = s2_neg;
  }
  if (!(r0 == BigInt(1))) {
    throw CryptoError("mod_inverse: inverse does not exist");
  }
  BigInt result = s0 % m;
  if (s0_neg && !result.is_zero()) result = m - result;
  return result;
}

namespace {

// One template body for every width. Its width is N when N > 0, so the
// compiler sees constant trip counts, unrolls, and keeps more of the carry
// chains in registers; N == 0 is the run-time-width instantiation, which
// reads the width from its argument and sizes its scratch from kMaxLimbs.
template <std::size_t N>
void mont_mul(u64* out, const u64* a, const u64* b, const u64* mod,
              u64 n0_inv, std::size_t width) {
  // CIOS Montgomery multiplication over 64-bit limbs, with the product
  // and reduction passes fused: each step adds a_i * b and m * modulus,
  // m chosen so the low limb cancels, and shifts t down one limb. t stays
  // below 2 * modulus, so one conditional subtraction reduces it.
  const std::size_t n = N > 0 ? N : width;
  u64 t[(N > 0 ? N : MontgomeryContext::kMaxLimbs) + 1];
  std::fill(t, t + n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const u64 a_i = a[i];
    u128 prod = static_cast<u128>(a_i) * b[0] + t[0];
    const u64 m = static_cast<u64>(prod) * n0_inv;
    u128 red = static_cast<u128>(m) * mod[0] + static_cast<u64>(prod);
    u64 prod_carry = static_cast<u64>(prod >> 64);
    u64 red_carry = static_cast<u64>(red >> 64);
    for (std::size_t j = 1; j < n; ++j) {
      prod = static_cast<u128>(a_i) * b[j] + t[j] + prod_carry;
      prod_carry = static_cast<u64>(prod >> 64);
      red = static_cast<u128>(m) * mod[j] + static_cast<u64>(prod) + red_carry;
      red_carry = static_cast<u64>(red >> 64);
      t[j - 1] = static_cast<u64>(red);
    }
    u128 top = static_cast<u128>(t[n]) + prod_carry + red_carry;
    t[n - 1] = static_cast<u64>(top);
    t[n] = static_cast<u64>(top >> 64);
  }
  // out = t - modulus unless that borrows past t's top limb.
  u64 borrow = 0;
  for (std::size_t j = 0; j < n; ++j) {
    u128 diff = static_cast<u128>(t[j]) - mod[j] - borrow;
    out[j] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1;
  }
  if (t[n] < borrow) std::copy(t, t + n, out);
}

}  // namespace

MontgomeryContext::MontgomeryContext(const BigInt& modulus)
    : modulus_(modulus), limbs_(modulus.limb_count()) {
  if (!modulus.is_odd() || modulus <= BigInt(1)) {
    throw std::invalid_argument("MontgomeryContext: modulus must be odd > 1");
  }
  if (limbs_ > kMaxLimbs) {
    throw std::invalid_argument("MontgomeryContext: modulus too wide");
  }
  // n0_inv = -modulus^{-1} mod 2^64 via Newton iteration on 64-bit words.
  u64 m0 = modulus.limb(0);
  u64 inv = m0;  // correct to 3 bits initially (m0 odd)
  for (int i = 0; i < 6; ++i) inv *= 2 - m0 * inv;
  n0_inv_ = ~inv + 1;  // -inv mod 2^64

  switch (limbs_) {
    case 4: mul_ = mont_mul<4>; break;
    case 8: mul_ = mont_mul<8>; break;
    default: mul_ = mont_mul<0>; break;
  }

  BigInt r_mod = (BigInt(1) << (64 * limbs_)) % modulus_;
  one_.resize(limbs_);
  r2_.resize(limbs_);
  load(one_.data(), r_mod);
  load(r2_.data(), (r_mod * r_mod) % modulus_);
}

void MontgomeryContext::load(u64* out, const BigInt& value) const {
  for (std::size_t i = 0; i < limbs_; ++i) out[i] = value.limb(i);
}

BigInt MontgomeryContext::store(const u64* limbs) const {
  BigInt out;
  out.limbs_.assign(limbs, limbs + limbs_);
  out.normalize();
  return out;
}

BigInt MontgomeryContext::mul(const BigInt& a, const BigInt& b) const {
  u64 x[kMaxLimbs] = {};
  u64 y[kMaxLimbs] = {};
  load(x, a);
  load(y, b);
  mul_limbs(x, x, y);
  return store(x);
}

BigInt MontgomeryContext::to_mont(const BigInt& value) const {
  return mul(value % modulus_, store(r2_.data()));
}

BigInt MontgomeryContext::from_mont(const BigInt& value) const {
  return mul(value, BigInt(1));
}

BigInt MontgomeryContext::pow(const BigInt& base, const BigInt& exponent) const {
  constexpr std::size_t kWindowBits = 4;
  constexpr std::size_t kTableSize = std::size_t{1} << kWindowBits;
  const std::size_t n = limbs_;
  // table[d] = base^d in Montgomery form; the short path uses only
  // table[1]. Stride n, so a 4-limb modulus keeps the table in 512 bytes.
  u64 table[kTableSize * kMaxLimbs] = {};
  u64 acc[kMaxLimbs] = {};

  if (base < modulus_) {
    load(acc, base);
  } else {
    load(acc, base % modulus_);
  }
  u64* x = table + n;
  mul_limbs(x, acc, r2_.data());  // to Montgomery form

  const std::size_t bits = exponent.bit_length();
  if (bits <= 64) {
    std::copy(one_.begin(), one_.end(), acc);
    for (std::size_t i = bits; i-- > 0;) {
      mul_limbs(acc, acc, acc);
      if (exponent.bit(i)) mul_limbs(acc, acc, x);
    }
  } else {
    std::copy(one_.begin(), one_.end(), table);
    for (std::size_t d = 2; d < kTableSize; ++d) {
      mul_limbs(table + d * n, table + (d - 1) * n, x);
    }
    // A digit never straddles a limb: 64 is a multiple of kWindowBits.
    auto digit = [&exponent](std::size_t window) {
      std::size_t bit = window * kWindowBits;
      return static_cast<std::size_t>(exponent.limb(bit / 64) >> (bit % 64)) &
             (kTableSize - 1);
    };
    std::size_t windows = (bits + kWindowBits - 1) / kWindowBits;
    const u64* top = table + digit(windows - 1) * n;
    std::copy(top, top + n, acc);
    for (std::size_t w = windows - 1; w-- > 0;) {
      for (std::size_t s = 0; s < kWindowBits; ++s) {
        mul_limbs(acc, acc, acc);
      }
      mul_limbs(acc, acc, table + digit(w) * n);
    }
  }
  // Out of Montgomery form: multiply by plain 1.
  u64 unit[kMaxLimbs] = {1};
  mul_limbs(acc, acc, unit);
  return store(acc);
}

BigInt mod_exp(const BigInt& base, const BigInt& exponent,
               const BigInt& modulus) {
  if (modulus.is_zero()) throw std::domain_error("mod_exp: zero modulus");
  if (modulus == BigInt(1)) return {};
  if (modulus.is_odd() &&
      modulus.limb_count() <= MontgomeryContext::kMaxLimbs) {
    return MontgomeryContext(modulus).pow(base, exponent);
  }
  // Even or very wide modulus: plain left-to-right square-and-multiply.
  BigInt result(1);
  BigInt acc = base % modulus;
  std::size_t bits = exponent.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    result = (result * result) % modulus;
    if (exponent.bit(i)) result = (result * acc) % modulus;
  }
  return result;
}

}  // namespace b2b::crypto
