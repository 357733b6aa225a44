// Unit and property tests for the arbitrary-precision integer substrate.
#include "crypto/bigint.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "crypto/chacha20.hpp"

namespace b2b::crypto {
namespace {

TEST(BigIntTest, DefaultIsZero) {
  BigInt zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.to_hex(), "0");
  EXPECT_EQ(zero.to_decimal(), "0");
  EXPECT_TRUE(zero.to_bytes_be().empty());
}

TEST(BigIntTest, SmallValueRoundTrips) {
  BigInt v(0xdeadbeefULL);
  EXPECT_EQ(v.to_hex(), "deadbeef");
  EXPECT_EQ(v.low_u64(), 0xdeadbeefULL);
  EXPECT_EQ(BigInt::from_hex("deadbeef"), v);
  EXPECT_EQ(BigInt::from_decimal("3735928559"), v);
  EXPECT_EQ(v.to_decimal(), "3735928559");
}

TEST(BigIntTest, BytesBigEndianRoundTrip) {
  Bytes raw = from_hex("0102030405060708090a0b0c0d0e0f10");
  BigInt v = BigInt::from_bytes_be(raw);
  EXPECT_EQ(v.to_bytes_be(), raw);
  EXPECT_EQ(v.to_hex(), "102030405060708090a0b0c0d0e0f10");
}

TEST(BigIntTest, FromBytesIgnoresLeadingZeros) {
  EXPECT_EQ(BigInt::from_bytes_be(from_hex("000000ff")), BigInt(255));
}

TEST(BigIntTest, FixedWidthBytesPadsAndThrows) {
  BigInt v(0x1234);
  EXPECT_EQ(v.to_bytes_be(4), from_hex("00001234"));
  EXPECT_THROW(v.to_bytes_be(1), std::invalid_argument);
}

TEST(BigIntTest, AdditionCarriesAcrossLimbs) {
  BigInt max64 = BigInt::from_hex("ffffffffffffffff");
  EXPECT_EQ(max64 + BigInt(1), BigInt::from_hex("10000000000000000"));
}

TEST(BigIntTest, SubtractionBorrowsAcrossLimbs) {
  BigInt big = BigInt::from_hex("10000000000000000");
  EXPECT_EQ(big - BigInt(1), BigInt::from_hex("ffffffffffffffff"));
}

TEST(BigIntTest, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigInt(1) - BigInt(2), std::invalid_argument);
}

TEST(BigIntTest, MultiplicationMatchesKnownProduct) {
  // 2^128 - 1 squared.
  BigInt v = BigInt::from_hex("ffffffffffffffffffffffffffffffff");
  EXPECT_EQ((v * v).to_hex(),
            "fffffffffffffffffffffffffffffffe"
            "00000000000000000000000000000001");
}

TEST(BigIntTest, ShiftLeftRightInverse) {
  BigInt v = BigInt::from_hex("123456789abcdef0123456789abcdef");
  for (std::size_t shift : {1u, 7u, 64u, 65u, 130u}) {
    EXPECT_EQ((v << shift) >> shift, v) << "shift=" << shift;
  }
}

TEST(BigIntTest, ShiftRightDropsLowBits) {
  EXPECT_EQ(BigInt(0xff) >> 4, BigInt(0x0f));
  EXPECT_EQ(BigInt(1) >> 1, BigInt(0));
}

TEST(BigIntTest, DivModByZeroThrows) {
  EXPECT_THROW(BigInt::divmod(BigInt(1), BigInt(0)), std::domain_error);
}

TEST(BigIntTest, DivModSingleLimb) {
  auto [q, r] = BigInt::divmod(BigInt::from_decimal("1000000000000000000007"),
                               BigInt(10));
  EXPECT_EQ(q.to_decimal(), "100000000000000000000");
  EXPECT_EQ(r, BigInt(7));
}

TEST(BigIntTest, DivModMultiLimbKnownValues) {
  BigInt n = BigInt::from_hex(
      "1a2b3c4d5e6f708192a3b4c5d6e7f8091a2b3c4d5e6f708192a3b4c5d6e7f809");
  BigInt d = BigInt::from_hex("fedcba98765432100123456789abcdef");
  auto [q, r] = BigInt::divmod(n, d);
  EXPECT_EQ(q * d + r, n);
  EXPECT_LT(r, d);
}

TEST(BigIntTest, ComparisonOrdering) {
  EXPECT_LT(BigInt(1), BigInt(2));
  EXPECT_GT(BigInt::from_hex("10000000000000000"), BigInt(2));
  EXPECT_EQ(BigInt(5) <=> BigInt(5), std::strong_ordering::equal);
}

TEST(BigIntTest, DecimalRoundTripLargeValue) {
  std::string dec = "123456789012345678901234567890123456789012345678901234";
  EXPECT_EQ(BigInt::from_decimal(dec).to_decimal(), dec);
}

// Property: (a*b) / b == a and (a*b) % b == 0 for random a, b.
class BigIntPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigIntPropertyTest, DivModInvertsMultiplication) {
  ChaCha20Rng rng(GetParam());
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::from_bytes_be(rng.bytes(1 + rng.next_below(40)));
    BigInt b = BigInt::from_bytes_be(rng.bytes(1 + rng.next_below(40)));
    if (b.is_zero()) continue;
    BigInt product = a * b;
    auto [q, r] = BigInt::divmod(product, b);
    EXPECT_EQ(q, a);
    EXPECT_TRUE(r.is_zero());
  }
}

TEST_P(BigIntPropertyTest, DivModIdentityForRandomPairs) {
  ChaCha20Rng rng(GetParam() ^ 0x9e3779b97f4a7c15ULL);
  for (int i = 0; i < 20; ++i) {
    BigInt n = BigInt::from_bytes_be(rng.bytes(1 + rng.next_below(64)));
    BigInt d = BigInt::from_bytes_be(rng.bytes(1 + rng.next_below(32)));
    if (d.is_zero()) continue;
    auto [q, r] = BigInt::divmod(n, d);
    EXPECT_EQ(q * d + r, n);
    EXPECT_LT(r, d);
  }
}

TEST_P(BigIntPropertyTest, AdditionSubtractionInverse) {
  ChaCha20Rng rng(GetParam() + 17);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::from_bytes_be(rng.bytes(1 + rng.next_below(48)));
    BigInt b = BigInt::from_bytes_be(rng.bytes(1 + rng.next_below(48)));
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a + b) - a, b);
  }
}

TEST_P(BigIntPropertyTest, BytesRoundTripAtEveryLength) {
  // Whole limbs and every length of partial top limb, leading zero bytes
  // included; hex and shifts are the references.
  ChaCha20Rng rng(GetParam() + 59);
  for (std::size_t len = 0; len <= 40; ++len) {
    Bytes raw = rng.bytes(len);
    if (len > 0 && rng.next_below(2) == 0) raw[0] = 0;
    BigInt v = BigInt::from_bytes_be(raw);
    EXPECT_EQ(v, BigInt::from_hex(to_hex(raw))) << len;
    EXPECT_EQ(v.to_bytes_be(len), raw) << len;
    Bytes wider(3, 0);
    wider.insert(wider.end(), raw.begin(), raw.end());
    EXPECT_EQ(v.to_bytes_be(len + 3), wider) << len;
    const std::size_t bits = v.bit_length();
    EXPECT_TRUE((v >> bits).is_zero()) << len;
    if (bits > 0) {
      EXPECT_EQ(v >> (bits - 1), BigInt(1)) << len;
    }
  }
}

TEST_P(BigIntPropertyTest, HexRoundTrip) {
  ChaCha20Rng rng(GetParam() + 101);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::from_bytes_be(rng.bytes(1 + rng.next_below(64)));
    EXPECT_EQ(BigInt::from_hex(a.to_hex()), a);
    EXPECT_EQ(BigInt::from_decimal(a.to_decimal()), a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 2026));

TEST(BigIntModExpTest, KnownSmallValues) {
  EXPECT_EQ(mod_exp(BigInt(4), BigInt(13), BigInt(497)), BigInt(445));
  EXPECT_EQ(mod_exp(BigInt(2), BigInt(10), BigInt(1025)), BigInt(1024));
  EXPECT_EQ(mod_exp(BigInt(0), BigInt(0), BigInt(7)), BigInt(1));
}

TEST(BigIntModExpTest, ZeroModulusThrows) {
  EXPECT_THROW(mod_exp(BigInt(2), BigInt(2), BigInt(0)), std::domain_error);
}

TEST(BigIntModExpTest, ModulusOneGivesZero) {
  EXPECT_EQ(mod_exp(BigInt(123), BigInt(456), BigInt(1)), BigInt(0));
}

TEST(BigIntModExpTest, FermatLittleTheorem) {
  // a^(p-1) = 1 mod p for prime p not dividing a.
  BigInt p = BigInt::from_decimal("1000000007");
  for (std::uint64_t a : {2ULL, 3ULL, 999999999ULL}) {
    EXPECT_EQ(mod_exp(BigInt(a), p - BigInt(1), p), BigInt(1));
  }
}

TEST(BigIntModExpTest, EvenModulusPathAgrees) {
  // Cross-check the non-Montgomery path against known identity:
  // 3^5 mod 16 = 243 mod 16 = 3.
  EXPECT_EQ(mod_exp(BigInt(3), BigInt(5), BigInt(16)), BigInt(3));
}

// An odd modulus `limbs` limbs wide whose limbs above the lowest are all
// ones (R - 2k - 1), and one with random limbs and the top bit set.
BigInt all_ones_modulus(std::size_t limbs, ChaCha20Rng& rng) {
  return (BigInt(1) << (64 * limbs)) - BigInt(2 * rng.next_below(1u << 20) + 1);
}

BigInt random_modulus(std::size_t limbs, ChaCha20Rng& rng) {
  Bytes raw = rng.bytes(8 * limbs);
  raw.front() |= 0x80;
  raw.back() |= 0x01;
  return BigInt::from_bytes_be(raw);
}

TEST(BigIntModExpTest, MontgomeryMatchesNaiveOnRandomInputs) {
  // The compiled kernel widths (4 and 8 limbs) and run-time widths beside
  // them (1, 2, 3, 5, 12, 16, 32 and the kernel's 64), exponents on both
  // sides of the square-and-multiply / 4-bit-window boundary (64 bits)
  // and at full width, and the edge bases. Each width runs a random
  // modulus and one whose limbs above the lowest are all ones
  // (R - 2k - 1): that drives the multiply's top limb hardest.
  ChaCha20Rng rng(7);
  auto random_bits = [&rng](std::size_t bits) {
    if (bits == 0) return BigInt();
    BigInt value = BigInt::from_bytes_be(rng.bytes((bits + 7) / 8));
    value = value % (BigInt(1) << (bits - 1));
    return value + (BigInt(1) << (bits - 1));  // exactly `bits` bits
  };
  for (std::size_t limbs : {1u, 2u, 3u, 4u, 5u, 8u, 12u, 16u, 32u, 64u}) {
    BigInt random_m = random_bits(64 * limbs);
    if (!random_m.is_odd()) random_m = random_m + BigInt(1);
    for (const BigInt& m : {random_m, all_ones_modulus(limbs, rng)}) {
      for (std::size_t exp_bits : {std::size_t{0}, std::size_t{1},
                                   std::size_t{17}, std::size_t{64},
                                   std::size_t{65}, 64 * limbs}) {
        BigInt exp = random_bits(exp_bits);
        for (const BigInt& base :
             {BigInt(0), BigInt(1), m - BigInt(1), random_bits(64 * limbs) % m,
              m + random_bits(64 * limbs)}) {
          // Naive: repeated square-and-multiply with divmod reduction.
          BigInt reduced = base % m;
          BigInt expect(1);
          for (std::size_t bit = exp.bit_length(); bit-- > 0;) {
            expect = (expect * expect) % m;
            if (exp.bit(bit)) expect = (expect * reduced) % m;
          }
          EXPECT_EQ(mod_exp(base, exp, m), expect)
              << limbs << " limbs, modulus " << m.to_hex() << ", "
              << exp_bits << "-bit exponent, base " << base.to_hex();
        }
      }
    }
  }
}

// One limb wider than MontgomeryContext supports.
BigInt too_wide_modulus() {
  return (BigInt(1) << (64 * MontgomeryContext::kMaxLimbs)) + BigInt(1);
}

TEST(BigIntModExpTest, ModulusWiderThanTheKernelUsesPlainPath) {
  BigInt wide = too_wide_modulus();
  EXPECT_EQ(mod_exp(BigInt(3), BigInt(5), wide), BigInt(243));
  EXPECT_EQ(mod_exp(wide - BigInt(1), BigInt(2), wide), BigInt(1));
}

TEST(MontgomeryContextTest, RequiresOddModulus) {
  EXPECT_THROW(MontgomeryContext(BigInt(10)), std::invalid_argument);
  EXPECT_THROW(MontgomeryContext(BigInt(1)), std::invalid_argument);
  // Wider than the kernel's stack scratch.
  EXPECT_THROW(MontgomeryContext{too_wide_modulus()}, std::invalid_argument);
}

TEST(MontgomeryContextTest, ToFromMontRoundTrip) {
  BigInt m = BigInt::from_decimal("1000000000000000000000000000057");
  MontgomeryContext ctx(m);
  ChaCha20Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    BigInt v = BigInt::from_bytes_be(rng.bytes(12)) % m;
    EXPECT_EQ(ctx.from_mont(ctx.to_mont(v)), v);
  }
}

TEST(MontgomeryContextTest, MulMatchesPlainModularProduct) {
  BigInt m = BigInt::from_decimal("982451653");
  MontgomeryContext ctx(m);
  BigInt a(123456789), b(987654321);
  BigInt got = ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b)));
  EXPECT_EQ(got, (a * b) % m);
}

TEST(MontgomeryContextTest, MulMatchesPlainProductAtEveryKernelWidth) {
  // mul, to_mont and from_mont on each compiled width (4 and 8 limbs) and
  // on the RSA-1024 and RSA-2048 moduli (16 and 32 limbs, run-time width),
  // against (a * b) % m; mul's result must be fully reduced.
  ChaCha20Rng rng(5);
  for (std::size_t limbs : {4u, 8u, 16u, 32u}) {
    for (const BigInt& m : {random_modulus(limbs, rng),
                            all_ones_modulus(limbs, rng)}) {
      MontgomeryContext ctx(m);
      for (int i = 0; i < 8; ++i) {
        BigInt a = i == 0 ? m - BigInt(1)
                          : BigInt::from_bytes_be(rng.bytes(8 * limbs)) % m;
        BigInt b = BigInt::from_bytes_be(rng.bytes(8 * limbs)) % m;
        BigInt a_mont = ctx.to_mont(a);
        EXPECT_EQ(a_mont, (a << (64 * limbs)) % m) << limbs << " limbs";
        EXPECT_LT(ctx.mul(a_mont, a_mont), m) << limbs << " limbs";
        EXPECT_EQ(ctx.from_mont(a_mont), a) << limbs << " limbs";
        EXPECT_EQ(ctx.from_mont(ctx.mul(a_mont, ctx.to_mont(b))), (a * b) % m)
            << limbs << " limbs, modulus " << m.to_hex();
        EXPECT_EQ(ctx.from_mont(ctx.mul(a_mont, a_mont)), (a * a) % m)
            << limbs << " limbs, modulus " << m.to_hex();
      }
    }
  }
}

// `value` (< 2^(64 * limbs)) as `limbs` little-endian limbs.
std::vector<std::uint64_t> limbs_of(const BigInt& value, std::size_t limbs) {
  std::vector<std::uint64_t> out(limbs);
  for (std::size_t i = 0; i < limbs; ++i) out[i] = value.limb(i);
  return out;
}

TEST(MontgomeryKernelTest, AdxMatchesPortableAtFixedWidths) {
  // The MULX/ADX kernels against the portable template compiled at the
  // same width, limb for limb. Each width runs 1,000 moduli of three
  // kinds (random with the top bit set; all ones above a random lowest
  // limb; R - 2k - 1, just below R = 2^(64 * width)) with 100 operand
  // pairs each: random ones, and the edges a = m - 1 and b = 0. Each pair
  // also runs with out aliasing a, and as a squaring with out aliasing a
  // and b at once, the way pow calls it.
  if (!detail::cpu_has_adx() || detail::mont_mul_adx(4) == nullptr) {
    GTEST_SKIP() << "no BMI2 and ADX, or no MULX/ADX kernel for this "
                    "target: the portable kernels run";
  }
  ChaCha20Rng rng(24);
  for (std::size_t width : {4u, 8u}) {
    const detail::MontMulKernel portable = detail::mont_mul_portable(width);
    const detail::MontMulKernel adx = detail::mont_mul_adx(width);
    ASSERT_NE(adx, nullptr) << width << " limbs";
    for (int k = 0; k < 1000; ++k) {
      BigInt m;
      switch (k % 3) {
        case 0: m = random_modulus(width, rng); break;
        case 1:
          m = (BigInt(1) << (64 * width)) - (BigInt(1) << 64) +
              BigInt(rng.next_u64() | 1);
          break;
        default: m = all_ones_modulus(width, rng); break;
      }
      const std::vector<std::uint64_t> mod = limbs_of(m, width);
      const std::uint64_t n0_inv =
          ((BigInt(1) << 64) -
           mod_inverse(BigInt(m.low_u64()), BigInt(1) << 64))
              .low_u64();
      auto below_m = [&] {
        return limbs_of(BigInt::from_bytes_be(rng.bytes(8 * width)) % m,
                        width);
      };
      for (int i = 0; i < 100; ++i) {
        std::vector<std::uint64_t> a =
            i == 0 ? limbs_of(m - BigInt(1), width) : below_m();
        std::vector<std::uint64_t> b =
            i == 1 ? std::vector<std::uint64_t>(width) : below_m();
        std::vector<std::uint64_t> expect(width);
        std::vector<std::uint64_t> got(width);
        portable(expect.data(), a.data(), b.data(), mod.data(), n0_inv,
                 width);
        adx(got.data(), a.data(), b.data(), mod.data(), n0_inv, width);
        ASSERT_EQ(got, expect) << width << " limbs, modulus " << m.to_hex()
                               << ", pair " << i;
        got = a;
        adx(got.data(), got.data(), b.data(), mod.data(), n0_inv, width);
        ASSERT_EQ(got, expect) << width << " limbs, out aliasing a, modulus "
                               << m.to_hex() << ", pair " << i;
        expect = a;
        portable(expect.data(), expect.data(), expect.data(), mod.data(),
                 n0_inv, width);
        got = a;
        adx(got.data(), got.data(), got.data(), mod.data(), n0_inv, width);
        ASSERT_EQ(got, expect) << width << " limbs, squaring in place, "
                               << "modulus " << m.to_hex() << ", pair " << i;
      }
    }
  }
  EXPECT_EQ(detail::mont_mul_adx(5), nullptr);
  EXPECT_EQ(detail::mont_mul_adx(16), nullptr);
}

TEST(MontgomeryKernelTest, UsesAdxWhenCpuHasIt) {
  // A broken CPU check would fall back to the portable kernels silently
  // and pass every other test, so tie it to what the kernel reports.
  std::ifstream cpuinfo("/proc/cpuinfo");
  if (!cpuinfo) GTEST_SKIP() << "no /proc/cpuinfo on this system";
  std::string line;
  bool listed = false;
  while (!listed && std::getline(cpuinfo, line)) {
    listed = line.rfind("flags", 0) == 0 &&
             (line + " ").find(" bmi2 ") != std::string::npos &&
             (line + " ").find(" adx ") != std::string::npos;
  }
  if (!listed) GTEST_SKIP() << "the kernel does not list both bmi2 and adx";
  EXPECT_TRUE(detail::cpu_has_adx());
  // A host that lists them is x86-64 Linux, where both kernels are built.
  EXPECT_NE(detail::mont_mul_adx(4), nullptr);
  EXPECT_NE(detail::mont_mul_adx(8), nullptr);
}

TEST(NumberTheoryTest, GcdKnownValues) {
  EXPECT_EQ(gcd(BigInt(48), BigInt(18)), BigInt(6));
  EXPECT_EQ(gcd(BigInt(17), BigInt(13)), BigInt(1));
  EXPECT_EQ(gcd(BigInt(0), BigInt(5)), BigInt(5));
}

TEST(NumberTheoryTest, LcmKnownValuesAndZeroThrows) {
  EXPECT_EQ(lcm(BigInt(4), BigInt(6)), BigInt(12));
  EXPECT_THROW(lcm(BigInt(0), BigInt(6)), std::domain_error);
}

TEST(NumberTheoryTest, ModInverseRoundTrip) {
  BigInt m = BigInt::from_decimal("1000000007");
  ChaCha20Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt(1 + rng.next_below(1000000006));
    BigInt inv = mod_inverse(a, m);
    EXPECT_EQ((a * inv) % m, BigInt(1));
  }
}

TEST(NumberTheoryTest, ModInverseNonexistentThrows) {
  EXPECT_THROW(mod_inverse(BigInt(4), BigInt(8)), CryptoError);
}

}  // namespace
}  // namespace b2b::crypto
