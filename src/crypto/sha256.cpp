#include "crypto/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace b2b::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return std::rotr(x, n);
}

}  // namespace

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = kInitialState;
  buffer_len_ = 0;
  total_len_ = 0;
}

Sha256& Sha256::update(BytesView data) {
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    std::size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    // copy_n, not memcpy: an empty span may carry a null pointer.
    std::copy_n(data.data(), take, buffer_.data() + buffer_len_);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == buffer_.size()) {
      process_blocks(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  // Every whole block left goes to the compression function in one call.
  if (std::size_t blocks = (data.size() - offset) / 64; blocks > 0) {
    process_blocks(data.data() + offset, blocks);
    offset += blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
  return *this;
}

Digest Sha256::finish() {
  // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
  std::uint64_t bit_len = total_len_ * 8;
  std::array<std::uint8_t, 72> pad{};
  pad[0] = 0x80;
  std::size_t pad_len =
      (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    pad[pad_len + i] =
        static_cast<std::uint8_t>((bit_len >> (56 - 8 * i)) & 0xff);
  }
  update(BytesView(pad.data(), pad_len + 8));

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4 + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

void Sha256::process_blocks(const std::uint8_t* data, std::size_t count) {
#if defined(__x86_64__)
  if (detail::cpu_has_sha_ni()) {
    detail::sha256_blocks_sha_ni(state_, data, count);
    return;
  }
#endif
  detail::sha256_blocks_portable(state_, data, count);
}

namespace detail {

namespace {

void compress_block(Sha256State& state, const std::uint8_t* block) {
  std::array<std::uint32_t, 64> w;
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    std::uint32_t ch = (e & f) ^ (~e & g);
    std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

void sha256_blocks_portable(Sha256State& state, const std::uint8_t* data,
                            std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) compress_block(state, data + 64 * i);
}

#if defined(__x86_64__)
// Compiled for the SHA extensions whatever the build's -march, and called
// only after cpu_has_sha_ni(). sha256rnds2 runs two rounds on the state
// held as the lane pairs (a, b, e, f) and (c, d, g, h), so the state is
// shuffled into that form once per call rather than once per block.
__attribute__((target("sha,sse4.1"))) void sha256_blocks_sha_ni(
    Sha256State& state, const std::uint8_t* data, std::size_t count) {
  // Reverses the bytes of each 32-bit lane: message words are big-endian.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // Lanes are written high to low: dcba holds a in lane 0.
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; count > 0; --count, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[k % 4] holds message words 4k..4k+3 while group k runs.
    __m128i w[4];
    // Unrolled so that w lives in registers at -O2 as well as -O3.
#pragma GCC unroll 16
    for (int k = 0; k < 16; ++k) {
      if (k < 4) {
        w[k] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * k)),
            byte_swap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16], four at once.
        const __m128i& last = w[(k + 3) % 4];
        w[k % 4] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w[k % 4], w[(k + 1) % 4]),
                          _mm_alignr_epi8(last, w[(k + 2) % 4], 4)),
            last);
      }
      const __m128i wk = _mm_add_epi32(
          w[k % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                        &kRoundConstants[4 * k])));
      // Two rounds each. After the first, cdgh holds the new (a, b, e, f)
      // and abef the new (c, d, g, h); the second swaps them back.
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), hgfe);
}
#endif

bool cpu_has_sha_ni() {
#if defined(__x86_64__)
  // The first hash may run during static initialisation, before the
  // runtime's own CPU-model setup, so initialise it here first.
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
#else
  return false;
#endif
}

}  // namespace detail

Digest Sha256::hash(BytesView data) { return Sha256().update(data).finish(); }

Bytes digest_bytes(const Digest& digest) {
  return Bytes(digest.begin(), digest.end());
}

Digest digest_from_bytes(BytesView data) {
  if (data.size() != 32) {
    throw CodecError("digest_from_bytes: expected 32 bytes, got " +
                     std::to_string(data.size()));
  }
  Digest out;
  std::copy(data.begin(), data.end(), out.begin());
  return out;
}

}  // namespace b2b::crypto
