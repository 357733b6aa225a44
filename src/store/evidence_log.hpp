// Append-only, hash-chained non-repudiation log.
//
// §3: "Evidence is stored systematically in local non-repudiation logs."
// Every signed protocol message a party sends or receives — and every
// violation it detects — is appended here. Records are hash-chained
// (each record binds the hash of its predecessor) so local tampering with
// history is detectable; verify_chain() replays the chain. The log can be
// persisted to disk and reloaded, which is what makes crash recovery and
// extra-protocol dispute resolution possible.
//
// §4.2: "protocol messages are held in local persistent storage at sender
// and recipient." This log is that storage: the appender files each
// protocol message under the label of the run it belongs to (the
// proposed tuple's sequence number and random-number hash), and run()
// returns a run's transcript in chain order. The labels sit beside the
// records, outside their hashed bytes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace b2b::store {

struct EvidenceRecord {
  std::uint64_t index = 0;
  crypto::Digest prev_hash{};  // all-zero for the first record
  std::uint64_t time_micros = 0;
  std::string kind;    // e.g. "propose.sent", "respond.recv", "violation"
  Bytes payload;       // encoded message or diagnostic text
  crypto::Digest record_hash{};  // hash over all preceding fields

  Bytes encode() const;
  static EvidenceRecord decode(BytesView data);  // throws CodecError

  /// Recompute what record_hash should be for the current field values.
  crypto::Digest compute_hash() const;

  friend bool operator==(const EvidenceRecord&,
                         const EvidenceRecord&) = default;
};

class EvidenceLog {
 public:
  EvidenceLog() = default;

  /// Append a record; index/prev_hash/record_hash are filled in here.
  /// The record is filed under each of `run_labels` (see run()).
  const EvidenceRecord& append(std::string kind, Bytes payload,
                               std::uint64_t time_micros,
                               const std::vector<std::string>& run_labels = {});

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const EvidenceRecord& at(std::size_t index) const;
  const std::vector<EvidenceRecord>& records() const { return records_; }

  /// All records of a given kind (dispute resolution queries).
  std::vector<const EvidenceRecord*> find_kind(const std::string& kind) const;

  /// The records filed under `run_label`, in chain order. The pointers
  /// are valid until the next append.
  std::vector<const EvidenceRecord*> run(const std::string& run_label) const;

  /// Labels of all runs filed (sorted).
  std::vector<std::string> run_labels() const;

  /// True iff every record's hash and back-link are intact.
  bool verify_chain() const;

  /// Persist to / load from a file (length-prefixed records). The file
  /// holds records only, not the run index: a coordinator rebuilds that
  /// from its journal, whose evidence records carry the labels.
  /// Throws StoreError on I/O failure or corrupt data.
  void save(const std::string& path) const;
  static EvidenceLog load(const std::string& path);

 private:
  std::vector<EvidenceRecord> records_;
  /// Run label -> indices of its records, ascending.
  std::map<std::string, std::vector<std::size_t>> runs_;
};

// Compatibility alias for the benchmark's correctness gate, which still
// reads a run's transcript as a MessageStore. Removed by the
// benchmark-only change that switches the gate to Coordinator::evidence().
using MessageStore = EvidenceLog;

}  // namespace b2b::store
