#include "crypto/rsa.hpp"

#include <stdexcept>

#include "common/error.hpp"

namespace b2b::crypto {

namespace {

// DER DigestInfo prefix for SHA-256 (RFC 8017 §9.2 note 1).
constexpr std::uint8_t kSha256DigestInfo[] = {
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
    0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20};

/// EMSA-PKCS1-v1_5 encoding of a SHA-256 digest into `em_len` bytes.
Bytes pkcs1_encode(const Digest& digest, std::size_t em_len) {
  constexpr std::size_t kPrefixLen = sizeof(kSha256DigestInfo);
  std::size_t t_len = kPrefixLen + digest.size();
  static_assert(kPrefixLen + sizeof(Digest) + 11 ==
                RsaPublicKey::kMinModulusBytes);
  if (em_len < t_len + 11) {
    throw CryptoError("pkcs1_encode: modulus too small for SHA-256");
  }
  Bytes em(em_len, 0xff);
  em[0] = 0x00;
  em[1] = 0x01;
  em[em_len - t_len - 1] = 0x00;
  std::copy(std::begin(kSha256DigestInfo), std::end(kSha256DigestInfo),
            em.begin() + static_cast<std::ptrdiff_t>(em_len - t_len));
  std::copy(digest.begin(), digest.end(),
            em.begin() + static_cast<std::ptrdiff_t>(em_len - digest.size()));
  return em;
}

constexpr std::uint64_t kSmallPrimes[] = {
    3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37,  41,  43,  47,  53,  59,
    61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
    137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251};

}  // namespace

RsaPublicKey::RsaPublicKey(BigInt n, BigInt e)
    : n_(std::move(n)), e_(std::move(e)) {
  if (!n_.is_zero()) mont_n_ = std::make_shared<const MontgomeryContext>(n_);
}

bool RsaPublicKey::verify(BytesView message, BytesView signature) const {
  return verify_digest(Sha256::hash(message), signature);
}

bool RsaPublicKey::verify_digest(const Digest& digest,
                                 BytesView signature) const {
  const std::size_t k = modulus_bytes();
  if (k < kMinModulusBytes || signature.size() != k) return false;
  BigInt s = BigInt::from_bytes_be(signature);
  if (s >= n_) return false;
  // s < n, so s^e mod n always fits in k bytes.
  return mont_n_->pow(s, e_).to_bytes_be(k) == pkcs1_encode(digest, k);
}

Bytes RsaPublicKey::encrypt(BytesView plaintext, ChaCha20Rng& rng) const {
  std::size_t k = modulus_bytes();
  if (plaintext.size() + 11 > k) {
    throw CryptoError("RsaPublicKey::encrypt: plaintext too long");
  }
  // EME-PKCS1-v1_5: 0x00 0x02 PS 0x00 M with PS >= 8 nonzero random bytes.
  Bytes em(k, 0);
  em[1] = 0x02;
  std::size_t ps_len = k - plaintext.size() - 3;
  for (std::size_t i = 0; i < ps_len; ++i) {
    std::uint8_t b;
    do {
      b = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
    } while (b == 0);
    em[2 + i] = b;
  }
  em[2 + ps_len] = 0x00;
  std::copy(plaintext.begin(), plaintext.end(),
            em.begin() + static_cast<std::ptrdiff_t>(3 + ps_len));
  return mont_n_->pow(BigInt::from_bytes_be(em), e_).to_bytes_be(k);
}

Bytes RsaPublicKey::encode() const {
  Bytes n_bytes = n_.to_bytes_be();
  Bytes e_bytes = e_.to_bytes_be();
  Bytes out;
  out.reserve(8 + n_bytes.size() + e_bytes.size());
  auto put_u32 = [&out](std::uint32_t v) {
    for (int i = 3; i >= 0; --i) {
      out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
    }
  };
  put_u32(static_cast<std::uint32_t>(n_bytes.size()));
  out.insert(out.end(), n_bytes.begin(), n_bytes.end());
  put_u32(static_cast<std::uint32_t>(e_bytes.size()));
  out.insert(out.end(), e_bytes.begin(), e_bytes.end());
  return out;
}

RsaPublicKey RsaPublicKey::decode(BytesView data) {
  std::size_t pos = 0;
  auto get_u32 = [&]() -> std::uint32_t {
    if (pos + 4 > data.size()) throw CodecError("RsaPublicKey: truncated");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data[pos++];
    return v;
  };
  auto get_blob = [&](std::size_t len) -> BytesView {
    if (pos + len > data.size()) throw CodecError("RsaPublicKey: truncated");
    BytesView view = data.subspan(pos, len);
    pos += len;
    return view;
  };
  std::uint32_t n_len = get_u32();
  BigInt n = BigInt::from_bytes_be(get_blob(n_len));
  std::uint32_t e_len = get_u32();
  BigInt e = BigInt::from_bytes_be(get_blob(e_len));
  if (pos != data.size()) throw CodecError("RsaPublicKey: trailing bytes");
  // Refuse what verification could not use: an even modulus has no
  // Montgomery form, a short one cannot hold a PKCS#1 signature, and a
  // wide one would not fit the Montgomery kernel's scratch.
  if (!n.is_odd() || (n.bit_length() + 7) / 8 < kMinModulusBytes ||
      n.limb_count() > MontgomeryContext::kMaxLimbs) {
    throw CodecError("RsaPublicKey: unusable modulus");
  }
  return RsaPublicKey(std::move(n), std::move(e));
}

RsaPrivateKey::RsaPrivateKey(BigInt n, BigInt e, BigInt d, BigInt p, BigInt q)
    : public_key_(std::move(n), std::move(e)),
      d_(std::move(d)),
      p_(std::move(p)),
      q_(std::move(q)) {
  BigInt one(1);
  d_p_ = d_ % (p_ - one);
  d_q_ = d_ % (q_ - one);
  q_inv_ = mod_inverse(q_, p_);
  mont_p_ = std::make_shared<const MontgomeryContext>(p_);
  mont_q_ = std::make_shared<const MontgomeryContext>(q_);
}

BigInt RsaPrivateKey::crt_exp(const BigInt& x) const {
  BigInt m1 = mont_p_->pow(x, d_p_);
  BigInt m2 = mont_q_->pow(x, d_q_);
  // h = q_inv * (m1 - m2) mod p (adjusting when m1 < m2)
  BigInt diff = (m1 >= m2) ? (m1 - m2) : (p_ - ((m2 - m1) % p_)) % p_;
  BigInt h = (q_inv_ * diff) % p_;
  return m2 + h * q_;
}

Bytes RsaPrivateKey::sign(BytesView message) const {
  return sign_digest(Sha256::hash(message));
}

Bytes RsaPrivateKey::sign_digest(const Digest& digest) const {
  std::size_t k = public_key_.modulus_bytes();
  return crt_exp(BigInt::from_bytes_be(pkcs1_encode(digest, k))).to_bytes_be(k);
}

std::optional<Bytes> RsaPrivateKey::decrypt(BytesView ciphertext) const {
  std::size_t k = public_key_.modulus_bytes();
  if (ciphertext.size() != k || k < 11) return std::nullopt;
  BigInt c = BigInt::from_bytes_be(ciphertext);
  if (c >= public_key_.n()) return std::nullopt;
  // c < n, so c^d mod n always fits in k bytes.
  Bytes em = crt_exp(c).to_bytes_be(k);
  if (em[0] != 0x00 || em[1] != 0x02) return std::nullopt;
  std::size_t sep = 2;
  while (sep < k && em[sep] != 0x00) ++sep;
  if (sep == k || sep < 10) return std::nullopt;  // PS must be >= 8 bytes
  return Bytes(em.begin() + static_cast<std::ptrdiff_t>(sep + 1), em.end());
}

bool is_probable_prime(const BigInt& candidate, ChaCha20Rng& rng, int rounds) {
  if (candidate < BigInt(2)) return false;
  for (std::uint64_t sp : kSmallPrimes) {
    BigInt small(sp);
    if (candidate == small) return true;
    if ((candidate % small).is_zero()) return false;
  }
  if (!candidate.is_odd()) return candidate == BigInt(2);

  // Write candidate - 1 = 2^r * d with d odd.
  BigInt n_minus_1 = candidate - BigInt(1);
  BigInt d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }

  MontgomeryContext mont(candidate);
  std::size_t cand_bytes = (candidate.bit_length() + 7) / 8;
  for (int round = 0; round < rounds; ++round) {
    // Random base in [2, candidate - 2].
    BigInt a;
    do {
      a = BigInt::from_bytes_be(rng.bytes(cand_bytes)) % candidate;
    } while (a < BigInt(2) || a > candidate - BigInt(2));

    BigInt x = mont.pow(a, d);
    if (x == BigInt(1) || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      x = (x * x) % candidate;
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

BigInt generate_prime(std::size_t bits, ChaCha20Rng& rng) {
  if (bits < 16) throw std::invalid_argument("generate_prime: bits too small");
  std::size_t num_bytes = (bits + 7) / 8;
  for (;;) {
    Bytes raw = rng.bytes(num_bytes);
    // Clear excess leading bits, then set the top two bits and the low bit.
    std::size_t excess = num_bytes * 8 - bits;
    raw[0] = static_cast<std::uint8_t>(raw[0] & (0xff >> excess));
    raw[0] |= static_cast<std::uint8_t>(0xc0 >> excess);
    if (excess >= 7) {
      // Top two bits straddle a byte boundary.
      raw[1] |= 0x80;
    }
    raw[num_bytes - 1] |= 0x01;
    BigInt candidate = BigInt::from_bytes_be(raw);
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

RsaPrivateKey generate_rsa_keypair(std::size_t bits, ChaCha20Rng& rng) {
  if (bits < 512 || bits > 64 * MontgomeryContext::kMaxLimbs) {
    throw std::invalid_argument("generate_rsa_keypair: need 512..4096 bits");
  }
  BigInt e(65537);
  for (;;) {
    BigInt p = generate_prime(bits / 2, rng);
    BigInt q = generate_prime(bits / 2, rng);
    if (p == q) continue;
    if (q > p) std::swap(p, q);
    BigInt n = p * q;
    if (n.bit_length() != bits) continue;
    BigInt one(1);
    BigInt lambda = lcm(p - one, q - one);
    if (!(gcd(e, lambda) == one)) continue;
    BigInt d = mod_inverse(e, lambda);
    return RsaPrivateKey(std::move(n), e, std::move(d), std::move(p),
                         std::move(q));
  }
}

}  // namespace b2b::crypto
