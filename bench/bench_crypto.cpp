// Experiment E12 — cost of the cryptographic primitives of §4.2.
//
// Every coordination run pays: 1 signature at the proposer, 1 signature +
// 1 verification per recipient, hashing of the state and of every
// message, plus one anchor signature and one TSS stamp per party when the
// run closes. These micro-benchmarks explain the constant factor measured
// in E9; the Montgomery exponentiation under them is timed on its own too.
#include <benchmark/benchmark.h>

#include "b2b/federation.hpp"
#include "crypto/bigint.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"

using namespace b2b;
using crypto::BigInt;
using crypto::ChaCha20Rng;
using crypto::Sha256;

namespace {

void BM_Sha256(benchmark::State& state) {
  std::size_t size = static_cast<std::size_t>(state.range(0));
  Bytes data(size, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

// The portable compression function alone, over the same sizes in whole
// blocks: the fallback path, and on a SHA-NI CPU the baseline for
// BM_Sha256 (which then adds one padding block per hash).
void BM_Sha256Portable(benchmark::State& state) {
  std::size_t size = static_cast<std::size_t>(state.range(0));
  Bytes data(size, 0xab);
  crypto::detail::Sha256State chain{};
  for (auto _ : state) {
    crypto::detail::sha256_blocks_portable(chain, data.data(), size / 64);
    benchmark::DoNotOptimize(chain);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_Sha256Portable)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_ChaCha20(benchmark::State& state) {
  std::size_t size = static_cast<std::size_t>(state.range(0));
  ChaCha20Rng rng(std::uint64_t{1});
  Bytes out(size);
  for (auto _ : state) {
    rng.fill(out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_ChaCha20)->Arg(64)->Arg(4096);

void BM_RsaSign(benchmark::State& state) {
  std::size_t bits = static_cast<std::size_t>(state.range(0));
  const crypto::RsaPrivateKey& key =
      core::Federation::shared_keypair(bits, 0);
  Bytes message = bytes_of("a state transition proposal to sign");
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(message));
  }
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_RsaVerify(benchmark::State& state) {
  std::size_t bits = static_cast<std::size_t>(state.range(0));
  const crypto::RsaPrivateKey& key =
      core::Federation::shared_keypair(bits, 0);
  Bytes message = bytes_of("a state transition proposal to verify");
  Bytes signature = key.sign(message);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.public_key().verify(message, signature));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_ModExp(benchmark::State& state) {
  std::size_t bits = static_cast<std::size_t>(state.range(0));
  ChaCha20Rng rng(std::uint64_t{7});
  Bytes mod_bytes = rng.bytes(bits / 8);
  mod_bytes.back() |= 1;
  mod_bytes.front() |= 0x80;
  BigInt modulus = BigInt::from_bytes_be(mod_bytes);
  BigInt base = BigInt::from_bytes_be(rng.bytes(bits / 8)) % modulus;
  BigInt exponent = BigInt::from_bytes_be(rng.bytes(bits / 8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::mod_exp(base, exponent, modulus));
  }
}
BENCHMARK(BM_ModExp)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

// One exponentiation on a cached context, full-width exponent: the work of
// one CRT half of a sign, without the context construction BM_ModExp pays
// on every call. 256 bits is the half of an RSA-512 sign.
void BM_MontPow(benchmark::State& state) {
  std::size_t bits = static_cast<std::size_t>(state.range(0));
  ChaCha20Rng rng(std::uint64_t{7});
  Bytes mod_bytes = rng.bytes(bits / 8);
  mod_bytes.back() |= 1;
  mod_bytes.front() |= 0x80;
  crypto::MontgomeryContext context(BigInt::from_bytes_be(mod_bytes));
  BigInt base = BigInt::from_bytes_be(rng.bytes(bits / 8)) % context.modulus();
  BigInt exponent = BigInt::from_bytes_be(rng.bytes(bits / 8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(context.pow(base, exponent));
  }
}
BENCHMARK(BM_MontPow)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_RsaKeygen(benchmark::State& state) {
  std::size_t bits = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ChaCha20Rng rng(seed++);
    benchmark::DoNotOptimize(crypto::generate_rsa_keypair(bits, rng));
  }
}
BENCHMARK(BM_RsaKeygen)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_TimestampStamp(benchmark::State& state) {
  std::size_t bits = static_cast<std::size_t>(state.range(0));
  crypto::TimestampService tss(core::Federation::shared_keypair(bits, 1),
                               [] { return std::uint64_t{42}; });
  Bytes evidence = bytes_of("an evidence record payload");
  for (auto _ : state) {
    benchmark::DoNotOptimize(tss.stamp(evidence));
  }
}
BENCHMARK(BM_TimestampStamp)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
