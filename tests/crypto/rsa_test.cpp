// RSA signatures: correctness, tamper-resistance, key serialization, and
// the prime-generation machinery.
#include "crypto/rsa.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "tests/support/test_keys.hpp"

namespace b2b::crypto {
namespace {

/// The RsaPublicKey wire format (u32 length + big-endian bytes, for n then
/// e), built by hand so that tests can encode keys the constructor refuses.
Bytes encode_raw_key(const Bytes& n, const Bytes& e) {
  Bytes out;
  for (const Bytes* part : {&n, &e}) {
    for (int i = 3; i >= 0; --i) {
      out.push_back(static_cast<std::uint8_t>(part->size() >> (8 * i)));
    }
    out.insert(out.end(), part->begin(), part->end());
  }
  return out;
}

TEST(PrimeTest, KnownSmallPrimesAccepted) {
  ChaCha20Rng rng(std::uint64_t{1});
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 97ULL, 251ULL}) {
    EXPECT_TRUE(is_probable_prime(BigInt(p), rng)) << p;
  }
}

TEST(PrimeTest, KnownCompositesRejected) {
  ChaCha20Rng rng(std::uint64_t{2});
  for (std::uint64_t c : {1ULL, 4ULL, 9ULL, 15ULL, 91ULL, 561ULL, 8911ULL}) {
    EXPECT_FALSE(is_probable_prime(BigInt(c), rng)) << c;
  }
}

TEST(PrimeTest, LargeKnownPrimeAccepted) {
  // 2^127 - 1 is a Mersenne prime.
  ChaCha20Rng rng(std::uint64_t{3});
  BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_TRUE(is_probable_prime(m127, rng));
  // 2^128 - 1 is composite.
  EXPECT_FALSE(is_probable_prime((BigInt(1) << 128) - BigInt(1), rng));
}

TEST(PrimeTest, GeneratedPrimeHasExactBitLengthAndIsOdd) {
  ChaCha20Rng rng(std::uint64_t{4});
  BigInt p = generate_prime(256, rng);
  EXPECT_EQ(p.bit_length(), 256u);
  EXPECT_TRUE(p.is_odd());
  // Top two bits set by construction.
  EXPECT_TRUE(p.bit(255));
  EXPECT_TRUE(p.bit(254));
}

TEST(RsaTest, SignVerifyRoundTrip) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  Bytes message = bytes_of("state transition proposal");
  Bytes signature = key.sign(message);
  EXPECT_EQ(signature.size(), key.public_key().modulus_bytes());
  EXPECT_TRUE(key.public_key().verify(message, signature));
}

TEST(RsaTest, VerifyRejectsTamperedMessage) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  Bytes signature = key.sign(bytes_of("original"));
  EXPECT_FALSE(key.public_key().verify(bytes_of("tampered"), signature));
}

TEST(RsaTest, VerifyRejectsTamperedSignature) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  Bytes message = bytes_of("message");
  Bytes signature = key.sign(message);
  for (std::size_t i = 0; i < signature.size(); i += 13) {
    Bytes bad = signature;
    bad[i] ^= 0x01;
    EXPECT_FALSE(key.public_key().verify(message, bad)) << "flip at " << i;
  }
}

TEST(RsaTest, VerifyRejectsWrongKey) {
  const RsaPrivateKey& key_a = test::shared_test_key(0);
  const RsaPrivateKey& key_b = test::shared_test_key(1);
  Bytes message = bytes_of("message");
  EXPECT_FALSE(key_b.public_key().verify(message, key_a.sign(message)));
}

TEST(RsaTest, VerifyRejectsWrongLengthSignature) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  Bytes message = bytes_of("message");
  Bytes signature = key.sign(message);
  signature.pop_back();
  EXPECT_FALSE(key.public_key().verify(message, signature));
  EXPECT_FALSE(key.public_key().verify(message, Bytes{}));
}

TEST(RsaTest, SignatureIsDeterministic) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  Bytes message = bytes_of("same input");
  EXPECT_EQ(key.sign(message), key.sign(message));
}

TEST(RsaTest, SignDigestMatchesSignMessage) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  Bytes message = bytes_of("digest equivalence");
  EXPECT_EQ(key.sign(message), key.sign_digest(Sha256::hash(message)));
  EXPECT_TRUE(key.public_key().verify_digest(Sha256::hash(message),
                                             key.sign(message)));
}

TEST(RsaTest, PublicKeyEncodeDecodeRoundTrip) {
  const RsaPublicKey& pub = test::shared_test_key(0).public_key();
  RsaPublicKey decoded = RsaPublicKey::decode(pub.encode());
  EXPECT_EQ(decoded, pub);
  Bytes message = bytes_of("serialization");
  EXPECT_TRUE(decoded.verify(message, test::shared_test_key(0).sign(message)));
}

TEST(RsaTest, PublicKeyDecodeRejectsGarbage) {
  EXPECT_THROW(RsaPublicKey::decode(Bytes{1, 2, 3}), CodecError);
  Bytes encoded = test::shared_test_key(0).public_key().encode();
  encoded.push_back(0);  // trailing byte
  EXPECT_THROW(RsaPublicKey::decode(encoded), CodecError);
  encoded.pop_back();
  encoded.pop_back();  // truncation
  EXPECT_THROW(RsaPublicKey::decode(encoded), CodecError);

  // Moduli verification could not use: too short for a PKCS#1 SHA-256
  // signature (2 and 61 bytes), even, or wider than 4096 bits.
  const Bytes e{0x01, 0x00, 0x01};
  EXPECT_THROW(RsaPublicKey::decode(encode_raw_key({0x01, 0x01}, e)),
               CodecError);
  EXPECT_THROW(RsaPublicKey::decode(encode_raw_key(Bytes(61, 0xff), e)),
               CodecError);
  Bytes even = test::shared_test_key(0).public_key().n().to_bytes_be();
  even.back() ^= 0x01;
  EXPECT_THROW(RsaPublicKey::decode(encode_raw_key(even, e)), CodecError);
  EXPECT_THROW(RsaPublicKey::decode(encode_raw_key(Bytes(513, 0xff), e)),
               CodecError);
  // Leading zero bytes do not count towards the modulus length.
  Bytes padded(2, 0x00);
  padded.resize(63, 0xff);
  EXPECT_THROW(RsaPublicKey::decode(encode_raw_key(padded, e)), CodecError);
  // The smallest usable modulus still decodes.
  EXPECT_NO_THROW(RsaPublicKey::decode(encode_raw_key(Bytes(62, 0xff), e)));
}

TEST(RsaTest, VerifyWithUnusableKeyReturnsFalse) {
  // Keys too small to carry a signature never throw from verification.
  Digest digest = Sha256::hash(bytes_of("message"));
  RsaPublicKey tiny(BigInt(257), BigInt(65537));
  EXPECT_FALSE(tiny.verify_digest(digest, Bytes{0x01, 0x00}));
  RsaPublicKey short_key(BigInt::from_bytes_be(Bytes(61, 0xff)), BigInt(3));
  EXPECT_FALSE(short_key.verify_digest(digest, Bytes(61, 0x01)));
  EXPECT_FALSE(RsaPublicKey{}.verify_digest(digest, Bytes{}));
  EXPECT_THROW(RsaPublicKey(BigInt(10), BigInt(3)), std::invalid_argument);
}

TEST(RsaTest, KnownAnswerSignatures) {
  // PKCS#1 v1.5 signing is deterministic: these signatures were recorded
  // before the Montgomery kernel was rewritten and must never change. The
  // 1024-bit key is generated here, so key generation is pinned too.
  Digest zeros{};
  Digest counting{};
  for (std::size_t i = 0; i < counting.size(); ++i) {
    counting[i] = static_cast<std::uint8_t>(i);
  }
  Digest abc = Sha256::hash(bytes_of("abc"));
  ChaCha20Rng rng(std::uint64_t{0xb2b0400});
  RsaPrivateKey key1024 = generate_rsa_keypair(1024, rng);

  struct Case {
    const RsaPrivateKey* key;
    const Digest* digest;
    const char* signature;
  };
  const Case cases[] = {
      {&test::shared_test_key(0), &zeros,
       "400d8d068968cb8f6bb3d76af9a72f37da20a163b6a2de745cd3b9337631f1bc"
       "9c0e88749eebc539852cd1e64608907cad066e3f8871acd8a66723b3a064a5e3"},
      {&test::shared_test_key(0), &counting,
       "5f00fa68ea473cee7be54bc9088aea37f8b1730864d99746f506c9376b038d76"
       "46b7f76bafe1741db4a390d24ce5634dfa5413ed916f589501f4e9d2610ba970"},
      {&test::shared_test_key(0), &abc,
       "4b69560d673fee27aecde7c0335087d60dbbfbdda0bbea80d1f1fdb8d248b375"
       "9e9de92ea913685c30642034bf21a808bed92dc176858e0af3a0f30f38623202"},
      {&key1024, &zeros,
       "90b0f9d79f22ed67e7d36096df88c8b896541fcea9ddde3ffa7f2a63e4dd0d20"
       "ae0831c662a7e474ac7902ea55c9f20a48a41d7601021bd12de624a1166de96a"
       "666de30ec27c63586c9aeb5f78c74dac6f1fc4e05782f46d2c91ab579f0d8b90"
       "984d99747219ba38968a7ed8e4733a020004b170669905fae817f2f2fa1dfa40"},
      {&key1024, &counting,
       "16e96f788e131718e1663682ac13e925ca4468c9d1c82a6b63e5f0bf8c888f3f"
       "f8b1a1c6dcd661fa61db6fafee5dd09a54a4defac4e23e10176b0afdbb1abe1e"
       "ea4e41dc76eb4deefc15d53b315d3a5df958af63ea8d53f22ab2bb6eab11b014"
       "eae7870a637b5e739ec90d3018b92ed4d7aa5daa7f5222856260b1482b2a5a2d"},
      {&key1024, &abc,
       "a54a26286277d1f400f8f1b42a0acf9568f277dd11a7a58a4d2baf31ad02abbc"
       "027bf4ad9d4bd8ca548ba8bf55c734daced001a937a4948632d7efa12cae85cd"
       "5cf55261fdf0395a69378293309937b19b38ebb2b2096c9cc5fc48db3fa694a5"
       "4c6ab5ac8a09d6c32332eb42de134bb289811eda8ef44ce246e5c3df286b4db9"},
  };
  for (const Case& c : cases) {
    Bytes signature = c.key->sign_digest(*c.digest);
    EXPECT_EQ(to_hex(signature), c.signature);
    EXPECT_TRUE(c.key->public_key().verify_digest(*c.digest, signature));
  }
}

TEST(RsaTest, ConcurrentSignAndVerifyWithOneKeyAgree) {
  // Shard lanes, reactor workers and the TSS sign with one key at once.
  // The key's Montgomery contexts are immutable and shared by its copies,
  // and all scratch lives on each caller's stack, so no lock is needed
  // and every thread gets the single-threaded bytes.
  const RsaPrivateKey& key = test::shared_test_key(0);
  std::vector<Digest> digests;
  std::vector<Bytes> expected;
  for (int i = 0; i < 8; ++i) {
    digests.push_back(
        Sha256::hash(bytes_of("concurrent-" + std::to_string(i))));
    expected.push_back(key.sign_digest(digests.back()));
  }
  constexpr int kThreads = 4;
  constexpr int kRounds = 4;
  std::vector<std::vector<Bytes>> signed_by(kThreads);
  std::vector<int> verified(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RsaPrivateKey copy = key;
      const RsaPrivateKey& signer = (t % 2 == 0) ? key : copy;
      for (int round = 0; round < kRounds; ++round) {
        for (const Digest& digest : digests) {
          Bytes signature = signer.sign_digest(digest);
          if (signer.public_key().verify_digest(digest, signature)) {
            ++verified[t];
          }
          signed_by[t].push_back(std::move(signature));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(verified[t], kRounds * static_cast<int>(digests.size()));
    ASSERT_EQ(signed_by[t].size(), kRounds * digests.size());
    for (std::size_t i = 0; i < signed_by[t].size(); ++i) {
      EXPECT_EQ(signed_by[t][i], expected[i % digests.size()])
          << "thread " << t << " signature " << i;
    }
  }
}

TEST(RsaTest, EncryptDecryptRoundTrip) {
  // The wire v3 hello transports a 32-byte ephemeral key half under the
  // peer's public key (EME-PKCS1-v1_5).
  const RsaPrivateKey& key = test::shared_test_key(0);
  ChaCha20Rng rng(std::uint64_t{7});
  Bytes half(32, 0x00);
  for (std::size_t i = 0; i < half.size(); ++i) {
    half[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  Bytes ciphertext = key.public_key().encrypt(half, rng);
  EXPECT_EQ(ciphertext.size(), key.public_key().modulus_bytes());
  auto plain = key.decrypt(ciphertext);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, half);
}

TEST(RsaTest, EncryptionIsRandomized) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  ChaCha20Rng rng(std::uint64_t{8});
  Bytes half(32, 0x42);
  EXPECT_NE(key.public_key().encrypt(half, rng),
            key.public_key().encrypt(half, rng));
}

TEST(RsaTest, DecryptRejectsTamperedCiphertext) {
  const RsaPrivateKey& key = test::shared_test_key(0);
  ChaCha20Rng rng(std::uint64_t{9});
  Bytes ciphertext = key.public_key().encrypt(Bytes(32, 0x17), rng);
  for (std::size_t i = 0; i < ciphertext.size(); i += 11) {
    Bytes bad = ciphertext;
    bad[i] ^= 0x01;
    auto plain = key.decrypt(bad);
    if (plain.has_value()) {
      // Padding survived by chance: the recovered bytes must still differ.
      EXPECT_NE(*plain, Bytes(32, 0x17)) << "flip at " << i;
    }
  }
  EXPECT_FALSE(key.decrypt(Bytes{}).has_value());
  EXPECT_FALSE(key.decrypt(Bytes(7, 0xee)).has_value());
}

TEST(RsaTest, DecryptWithWrongKeyFails) {
  const RsaPrivateKey& key_a = test::shared_test_key(0);
  const RsaPrivateKey& key_b = test::shared_test_key(1);
  ChaCha20Rng rng(std::uint64_t{10});
  Bytes ciphertext = key_a.public_key().encrypt(Bytes(32, 0x2a), rng);
  auto plain = key_b.decrypt(ciphertext);
  if (plain.has_value()) {
    EXPECT_NE(*plain, Bytes(32, 0x2a));
  }
}

TEST(RsaTest, KeypairGenerationRejectsTinyKeys) {
  ChaCha20Rng rng(std::uint64_t{5});
  EXPECT_THROW(generate_rsa_keypair(256, rng), std::invalid_argument);
}

TEST(RsaTest, FreshKeypairHasRequestedModulusSize) {
  ChaCha20Rng rng(std::uint64_t{99});
  RsaPrivateKey key = generate_rsa_keypair(512, rng);
  EXPECT_EQ(key.public_key().n().bit_length(), 512u);
  EXPECT_EQ(key.public_key().e(), BigInt(65537));
  Bytes message = bytes_of("fresh key");
  EXPECT_TRUE(key.public_key().verify(message, key.sign(message)));
}

}  // namespace
}  // namespace b2b::crypto
