// SHA-256 against FIPS 180-4 / NIST test vectors plus streaming behaviour,
// and the SHA-NI compression path against the portable reference.
#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "crypto/chacha20.hpp"

namespace b2b::crypto {
namespace {

std::string hash_hex(std::string_view input) {
  return to_hex(digest_bytes(Sha256::hash(bytes_of(input))));
}

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, ExactlyOneBlock) {
  // 64 bytes: padding spills into a second block.
  std::string input(64, 'a');
  EXPECT_EQ(hash_hex(input),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(digest_bytes(h.finish())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  Bytes data = bytes_of("the quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.update(BytesView(data.data(), split));
    h.update(BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(h.finish(), Sha256::hash(data)) << "split at " << split;
  }
  // Every length up to 3,000 bytes, fed in up to four pieces at random
  // split points, so whole-block runs and the partial buffer interleave.
  ChaCha20Rng rng(std::uint64_t{256});
  Bytes long_data = rng.bytes(3000);
  for (std::size_t len = 0; len <= long_data.size(); ++len) {
    std::vector<std::size_t> cuts = {0, len};
    for (int i = 0; i < 3; ++i) cuts.push_back(rng.next_below(len + 1));
    std::sort(cuts.begin(), cuts.end());
    Sha256 h;
    for (std::size_t i = 1; i < cuts.size(); ++i) {
      h.update(BytesView(long_data.data() + cuts[i - 1],
                         cuts[i] - cuts[i - 1]));
    }
    EXPECT_EQ(h.finish(), Sha256::hash(BytesView(long_data.data(), len)))
        << "length " << len;
  }
}

TEST(Sha256Test, PortableBlockMatchesFips) {
  // "abc" padded to one block by hand: 0x80, zeros, bit length 24.
  std::array<std::uint8_t, 64> block{'a', 'b', 'c', 0x80};
  block[63] = 24;
  detail::Sha256State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                               0xa54ff53a, 0x510e527f, 0x9b05688c,
                               0x1f83d9ab, 0x5be0cd19};
  detail::sha256_blocks_portable(state, block.data(), 1);
  const detail::Sha256State fips = {0xba7816bf, 0x8f01cfea, 0x414140de,
                                    0x5dae2223, 0xb00361a3, 0x96177a9c,
                                    0xb410ff61, 0xf20015ad};
  EXPECT_EQ(state, fips);
}

TEST(Sha256Test, ShaNiBlocksMatchPortable) {
#if defined(__x86_64__)
  if (!detail::cpu_has_sha_ni()) {
    GTEST_SKIP() << "this CPU lacks the SHA extensions; portable path only";
  }
  ChaCha20Rng rng(std::uint64_t{180});
  Bytes buffer = rng.bytes(16 + 40 * 64);
  for (std::size_t blocks = 1; blocks <= 40; ++blocks) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      detail::Sha256State start;
      for (auto& word : start) {
        word = static_cast<std::uint32_t>(rng.next_u64());
      }
      detail::Sha256State portable = start;
      detail::Sha256State sha_ni = start;
      detail::sha256_blocks_portable(portable, buffer.data() + offset, blocks);
      detail::sha256_blocks_sha_ni(sha_ni, buffer.data() + offset, blocks);
      EXPECT_EQ(sha_ni, portable)
          << blocks << " blocks at offset " << offset;
    }
  }
#else
  GTEST_SKIP() << "the SHA-NI path exists only on x86-64";
#endif
}

TEST(Sha256Test, UsesShaNiWhenCpuHasIt) {
  // A broken CPU check would fall back to the portable path silently and
  // pass every other test, so tie it to what the kernel reports.
  std::ifstream cpuinfo("/proc/cpuinfo");
  if (!cpuinfo) GTEST_SKIP() << "no /proc/cpuinfo on this system";
  std::string line;
  bool listed = false;
  while (!listed && std::getline(cpuinfo, line)) {
    listed = line.rfind("flags", 0) == 0 &&
             (line + " ").find(" sha_ni ") != std::string::npos;
  }
  if (!listed) GTEST_SKIP() << "the kernel does not list sha_ni";
  EXPECT_TRUE(detail::cpu_has_sha_ni());
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.update(bytes_of("garbage"));
  h.reset();
  h.update(bytes_of("abc"));
  EXPECT_EQ(to_hex(digest_bytes(h.finish())),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, DifferentInputsDiffer) {
  EXPECT_NE(Sha256::hash(bytes_of("a")), Sha256::hash(bytes_of("b")));
  EXPECT_NE(Sha256::hash(Bytes{}), Sha256::hash(Bytes{0x00}));
}

TEST(Sha256Test, DigestBytesRoundTrip) {
  Digest d = Sha256::hash(bytes_of("roundtrip"));
  EXPECT_EQ(digest_from_bytes(digest_bytes(d)), d);
}

TEST(Sha256Test, DigestFromBytesWrongSizeThrows) {
  EXPECT_THROW(digest_from_bytes(Bytes(31)), CodecError);
  EXPECT_THROW(digest_from_bytes(Bytes(33)), CodecError);
}

}  // namespace
}  // namespace b2b::crypto
