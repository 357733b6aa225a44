// The fingerprint every golden-digest scenario computes.
//
// A golden scenario hashes its whole deployment twice. The byte-level
// digest mixes each party's evidence size and tail record, so it moves
// with any change to the bytes of the log — including where trusted
// time-stamps and signed anchors sit. The stamp-blind digest mixes, per
// party, every non-anchor evidence record's kind, time and unframed
// payload (the first blob of the {payload, stamp} framing) instead: it
// pins what each party recorded and when, and nothing about how the log
// is stamped or anchored. Everything else a scenario mixes (tuples,
// values, counters, the executed event count) goes into both.
#pragma once

#include <cstdint>
#include <string>

#include "b2b/coordinator.hpp"
#include "b2b/evidence.hpp"
#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "store/evidence_log.hpp"
#include "wire/codec.hpp"

namespace b2b::test {

/// The two fingerprints of one golden scenario run.
struct GoldenDigests {
  std::string bytes;
  std::string stamp_blind;
};

/// Hash of one party's evidence with stamps and anchors left out.
inline Bytes stamp_blind_evidence_digest(const store::EvidenceLog& log) {
  crypto::Sha256 hasher;
  for (const store::EvidenceRecord& record : log.records()) {
    if (record.kind == core::evidence_kind::kEvidenceAnchor) continue;
    wire::Encoder enc;
    enc.str(record.kind)
        .u64(record.time_micros)
        .blob(core::Coordinator::decode_evidence_payload(record.payload)
                  .payload);
    hasher.update(enc.bytes());
  }
  return crypto::digest_bytes(hasher.finish());
}

/// Accumulates both fingerprints of a golden scenario.
class GoldenHasher {
 public:
  /// Mix a length-prefixed value into both digests.
  void mix(const Bytes& bytes) {
    mix_into(bytes_, bytes);
    mix_into(stamp_blind_, bytes);
  }

  /// Mix one party's evidence log: its size and tail record into the
  /// byte-level digest, its stamp-blind digest into the other.
  void mix_evidence(const store::EvidenceLog& log) {
    mix_into(bytes_, bytes_of(std::to_string(log.size())));
    if (!log.empty()) mix_into(bytes_, log.at(log.size() - 1).encode());
    mix_into(stamp_blind_, stamp_blind_evidence_digest(log));
  }

  GoldenDigests finish() {
    return {to_hex(crypto::digest_bytes(bytes_.finish())),
            to_hex(crypto::digest_bytes(stamp_blind_.finish()))};
  }

 private:
  static void mix_into(crypto::Sha256& hasher, const Bytes& bytes) {
    const std::uint64_t n = bytes.size();
    Bytes len(8);
    for (int i = 0; i < 8; ++i) {
      len[i] = static_cast<std::uint8_t>(n >> (8 * i));
    }
    hasher.update(len);
    hasher.update(bytes);
  }

  crypto::Sha256 bytes_;
  crypto::Sha256 stamp_blind_;
};

}  // namespace b2b::test
