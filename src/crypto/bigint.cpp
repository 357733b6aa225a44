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

#if defined(__x86_64__) && defined(__ELF__)
// The CIOS multiply on MULX, ADCX and ADOX (BMI2 and ADX), written out at
// 4 and 8 limbs with the MontMulKernel signature (System V: out in rdi, a
// in rsi, b in rdx, mod in rcx, n0_inv in r8; the width in r9 is unused).
// Step i makes two passes over t, which is held in registers: t += a_i * b,
// then t += m * mod with m = t_0 * n0_inv. In each pass mulx gives a
// product's two halves without touching the flags, adcx adds the low
// halves through CF and adox the high halves through OF, two carry chains
// at once; both carries are then folded into the top two limbs of t. The
// second pass leaves t_0 zero, so the next step, instead of shifting t
// down a limb, names the registers one further on, and t_0's register
// becomes the new top limb. t stays below 2 * mod, so the conditional
// subtraction of the portable template ends it, and every step computes
// the same m, so the result is the portable one limb for limb. out is
// written last, after every read of a and b, so it may alias both.
//
// At 4 limbs everything lives in registers. At 8 the ten limbs of t, the
// multiplier (rdx), the two product halves and the b and mod pointers take
// all fifteen, so out, a and n0_inv live on the stack. Both save the
// callee-saved registers they use, carry CFI for unwinders, and address
// memory only through their arguments and rsp, so they are position
// independent. endbr64 is a no-op without CET.
asm(R"(
  # A section of their own, so that the kernels do not shift (and
  # realign) the functions compiled from this file.
  .pushsection .text.b2b_crypto_mont_mul_adx, "ax", @progbits

  # Save and restore a callee-saved register, with its CFI.
  .macro b2b_push reg
    push \reg
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset \reg, 0
  .endm
  .macro b2b_pop reg
    pop \reg
    .cfi_adjust_cfa_offset -8
    .cfi_restore \reg
  .endm

  # One column of a pass: hi:rax = rdx * off(p); rax joins tj on the CF
  # chain and hi joins tk, the next limb, on the OF chain.
  .macro b2b_mac p, off, hi, tj, tk
    mulx \off(\p), %rax, \hi
    adcx %rax, \tj
    adox \hi, \tk
  .endm

  # Ends a pass: the pending CF goes into top and OF into over, then the
  # carry out of top into over too. mov leaves the flags alone.
  .macro b2b_fold top, over
    mov $0, %eax
    adcx %rax, \top
    adox %rax, \over
    adcx %rax, \over
  .endm

  # t += rdx * p for the 4-limb t in t0..t3, carries into t4 and t5; CF
  # and OF clear on entry.
  .macro b2b_mont_pass4 p, t0, t1, t2, t3, t4, t5
    b2b_mac \p, 0, %rbx, \t0, \t1
    b2b_mac \p, 8, %rbx, \t1, \t2
    b2b_mac \p, 16, %rbx, \t2, \t3
    b2b_mac \p, 24, %rbx, \t3, \t4
    b2b_fold \t4, \t5
  .endm

  # One step, a_i at byte offset `off` of a (rsi), b in r9, mod in rcx,
  # n0_inv in r8. Leaves t0 zero.
  .macro b2b_mont_step4 off, t0, t1, t2, t3, t4, t5
    mov \off(%rsi), %rdx
    xor %eax, %eax
    b2b_mont_pass4 %r9, \t0, \t1, \t2, \t3, \t4, \t5
    mov \t0, %rdx
    imul %r8, %rdx
    xor %eax, %eax
    b2b_mont_pass4 %rcx, \t0, \t1, \t2, \t3, \t4, \t5
  .endm

  .p2align 5
  .globl b2b_crypto_mont_mul_adx4
  .hidden b2b_crypto_mont_mul_adx4
  .type b2b_crypto_mont_mul_adx4, @function
b2b_crypto_mont_mul_adx4:
  .cfi_startproc
  endbr64
  b2b_push %rbx
  b2b_push %rbp
  b2b_push %r12
  b2b_push %r13
  b2b_push %r14
  mov %rdx, %r9
  xor %ebp, %ebp
  xor %r10d, %r10d
  xor %r11d, %r11d
  xor %r12d, %r12d
  xor %r13d, %r13d
  xor %r14d, %r14d
  b2b_mont_step4 0, %rbp, %r10, %r11, %r12, %r13, %r14
  b2b_mont_step4 8, %r10, %r11, %r12, %r13, %r14, %rbp
  b2b_mont_step4 16, %r11, %r12, %r13, %r14, %rbp, %r10
  b2b_mont_step4 24, %r12, %r13, %r14, %rbp, %r10, %r11
  # t is r13, r14, rbp, r10 with r11 on top: out = t - mod unless that
  # borrows past r11, else t.
  mov %r13, %rax
  sub (%rcx), %rax
  mov %r14, %rbx
  sbb 8(%rcx), %rbx
  mov %rbp, %rdx
  sbb 16(%rcx), %rdx
  mov %r10, %rsi
  sbb 24(%rcx), %rsi
  sbb $0, %r11
  cmovc %r13, %rax
  cmovc %r14, %rbx
  cmovc %rbp, %rdx
  cmovc %r10, %rsi
  mov %rax, (%rdi)
  mov %rbx, 8(%rdi)
  mov %rdx, 16(%rdi)
  mov %rsi, 24(%rdi)
  b2b_pop %r14
  b2b_pop %r13
  b2b_pop %r12
  b2b_pop %rbp
  b2b_pop %rbx
  ret
  .cfi_endproc
  .size b2b_crypto_mont_mul_adx4, .-b2b_crypto_mont_mul_adx4

  # The 8-limb pass: product halves in rax and rbp.
  .macro b2b_mont_pass8 p, t0, t1, t2, t3, t4, t5, t6, t7, t8, t9
    b2b_mac \p, 0, %rbp, \t0, \t1
    b2b_mac \p, 8, %rbp, \t1, \t2
    b2b_mac \p, 16, %rbp, \t2, \t3
    b2b_mac \p, 24, %rbp, \t3, \t4
    b2b_mac \p, 32, %rbp, \t4, \t5
    b2b_mac \p, 40, %rbp, \t5, \t6
    b2b_mac \p, 48, %rbp, \t6, \t7
    b2b_mac \p, 56, %rbp, \t7, \t8
    b2b_fold \t8, \t9
  .endm

  # One step: b in rsi, mod in rcx; n0_inv at 0(%rsp), a at 8(%rsp).
  .macro b2b_mont_step8 off, t0, t1, t2, t3, t4, t5, t6, t7, t8, t9
    mov 8(%rsp), %rdx
    mov \off(%rdx), %rdx
    xor %eax, %eax
    b2b_mont_pass8 %rsi, \t0, \t1, \t2, \t3, \t4, \t5, \t6, \t7, \t8, \t9
    mov \t0, %rdx
    imul (%rsp), %rdx
    xor %eax, %eax
    b2b_mont_pass8 %rcx, \t0, \t1, \t2, \t3, \t4, \t5, \t6, \t7, \t8, \t9
  .endm

  # out_j = tj - mod_j, out in rdx, on the borrow chain that op (sub,
  # then sbb) starts or continues.
  .macro b2b_sub_out op, off, tj
    mov \tj, %rax
    \op \off(%rcx), %rax
    mov %rax, \off(%rdx)
  .endm

  .p2align 5
  .globl b2b_crypto_mont_mul_adx8
  .hidden b2b_crypto_mont_mul_adx8
  .type b2b_crypto_mont_mul_adx8, @function
b2b_crypto_mont_mul_adx8:
  .cfi_startproc
  endbr64
  b2b_push %rbx
  b2b_push %rbp
  b2b_push %r12
  b2b_push %r13
  b2b_push %r14
  b2b_push %r15
  push %rdi
  .cfi_adjust_cfa_offset 8
  push %rsi
  .cfi_adjust_cfa_offset 8
  push %r8
  .cfi_adjust_cfa_offset 8
  mov %rdx, %rsi
  xor %ebx, %ebx
  xor %edi, %edi
  xor %r8d, %r8d
  xor %r9d, %r9d
  xor %r10d, %r10d
  xor %r11d, %r11d
  xor %r12d, %r12d
  xor %r13d, %r13d
  xor %r14d, %r14d
  xor %r15d, %r15d
  b2b_mont_step8 0, %rbx, %rdi, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
  b2b_mont_step8 8, %rdi, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15, %rbx
  b2b_mont_step8 16, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15, %rbx, %rdi
  b2b_mont_step8 24, %r9, %r10, %r11, %r12, %r13, %r14, %r15, %rbx, %rdi, %r8
  b2b_mont_step8 32, %r10, %r11, %r12, %r13, %r14, %r15, %rbx, %rdi, %r8, %r9
  b2b_mont_step8 40, %r11, %r12, %r13, %r14, %r15, %rbx, %rdi, %r8, %r9, %r10
  b2b_mont_step8 48, %r12, %r13, %r14, %r15, %rbx, %rdi, %r8, %r9, %r10, %r11
  b2b_mont_step8 56, %r13, %r14, %r15, %rbx, %rdi, %r8, %r9, %r10, %r11, %r12
  # t is r14, r15, rbx, rdi, r8, r9, r10, r11 with r12 on top. Write
  # t - mod to out; unless that borrows past r12, load it back into t's
  # registers; then write those to out.
  mov 16(%rsp), %rdx
  b2b_sub_out sub, 0, %r14
  b2b_sub_out sbb, 8, %r15
  b2b_sub_out sbb, 16, %rbx
  b2b_sub_out sbb, 24, %rdi
  b2b_sub_out sbb, 32, %r8
  b2b_sub_out sbb, 40, %r9
  b2b_sub_out sbb, 48, %r10
  b2b_sub_out sbb, 56, %r11
  sbb $0, %r12
  cmovnc (%rdx), %r14
  cmovnc 8(%rdx), %r15
  cmovnc 16(%rdx), %rbx
  cmovnc 24(%rdx), %rdi
  cmovnc 32(%rdx), %r8
  cmovnc 40(%rdx), %r9
  cmovnc 48(%rdx), %r10
  cmovnc 56(%rdx), %r11
  mov %r14, (%rdx)
  mov %r15, 8(%rdx)
  mov %rbx, 16(%rdx)
  mov %rdi, 24(%rdx)
  mov %r8, 32(%rdx)
  mov %r9, 40(%rdx)
  mov %r10, 48(%rdx)
  mov %r11, 56(%rdx)
  add $24, %rsp
  .cfi_adjust_cfa_offset -24
  b2b_pop %r15
  b2b_pop %r14
  b2b_pop %r13
  b2b_pop %r12
  b2b_pop %rbp
  b2b_pop %rbx
  ret
  .cfi_endproc
  .size b2b_crypto_mont_mul_adx8, .-b2b_crypto_mont_mul_adx8

  .popsection
)");

extern "C" {
__attribute__((visibility("hidden"))) void b2b_crypto_mont_mul_adx4(
    u64* out, const u64* a, const u64* b, const u64* mod, u64 n0_inv,
    std::size_t width);
__attribute__((visibility("hidden"))) void b2b_crypto_mont_mul_adx8(
    u64* out, const u64* a, const u64* b, const u64* mod, u64 n0_inv,
    std::size_t width);
}
#endif

namespace detail {

MontMulKernel mont_mul_portable(std::size_t width) {
  switch (width) {
    case 4: return mont_mul<4>;
    case 8: return mont_mul<8>;
    default: return mont_mul<0>;
  }
}

MontMulKernel mont_mul_adx([[maybe_unused]] std::size_t width) {
#if defined(__x86_64__) && defined(__ELF__)
  switch (width) {
    case 4: return b2b_crypto_mont_mul_adx4;
    case 8: return b2b_crypto_mont_mul_adx8;
  }
#endif
  return nullptr;
}

bool cpu_has_adx() {
#if defined(__x86_64__)
  // A context may be built during static initialisation, before the
  // runtime's own CPU-model setup, so initialise it here first.
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx");
  }();
  return has;
#else
  return false;
#endif
}

}  // namespace detail

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

  mul_ = detail::mont_mul_portable(limbs_);
  if (detail::cpu_has_adx()) {
    if (detail::MontMulKernel adx = detail::mont_mul_adx(limbs_)) mul_ = adx;
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
