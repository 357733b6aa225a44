#include "store/evidence_log.hpp"

#include <cstdio>
#include <stdexcept>

#include "common/error.hpp"
#include "wire/codec.hpp"

namespace b2b::store {

Bytes EvidenceRecord::encode() const {
  wire::Encoder enc;
  enc.u64(index)
      .raw(crypto::digest_bytes(prev_hash))
      .u64(time_micros)
      .str(kind)
      .blob(payload)
      .raw(crypto::digest_bytes(record_hash));
  return std::move(enc).take();
}

EvidenceRecord EvidenceRecord::decode(BytesView data) {
  wire::Decoder dec{data};
  EvidenceRecord rec;
  rec.index = dec.u64();
  rec.prev_hash = crypto::digest_from_bytes(dec.raw(32));
  rec.time_micros = dec.u64();
  rec.kind = dec.str();
  rec.payload = dec.blob();
  rec.record_hash = crypto::digest_from_bytes(dec.raw(32));
  dec.expect_done();
  return rec;
}

crypto::Digest EvidenceRecord::compute_hash() const {
  wire::Encoder enc;
  enc.u64(index)
      .raw(crypto::digest_bytes(prev_hash))
      .u64(time_micros)
      .str(kind)
      .blob(payload);
  return crypto::Sha256::hash(enc.bytes());
}

const EvidenceRecord& EvidenceLog::append(
    std::string kind, Bytes payload, std::uint64_t time_micros,
    const std::vector<std::string>& run_labels) {
  EvidenceRecord rec;
  rec.index = records_.size();
  rec.prev_hash =
      records_.empty() ? crypto::Digest{} : records_.back().record_hash;
  rec.time_micros = time_micros;
  rec.kind = std::move(kind);
  rec.payload = std::move(payload);
  rec.record_hash = rec.compute_hash();
  for (const std::string& label : run_labels) {
    runs_[label].push_back(rec.index);
  }
  records_.push_back(std::move(rec));
  return records_.back();
}

const EvidenceRecord& EvidenceLog::at(std::size_t index) const {
  if (index >= records_.size()) {
    throw std::out_of_range("EvidenceLog::at: index " + std::to_string(index));
  }
  return records_[index];
}

std::vector<const EvidenceRecord*> EvidenceLog::find_kind(
    const std::string& kind) const {
  std::vector<const EvidenceRecord*> out;
  for (const auto& rec : records_) {
    if (rec.kind == kind) out.push_back(&rec);
  }
  return out;
}

std::vector<const EvidenceRecord*> EvidenceLog::run(
    const std::string& run_label) const {
  std::vector<const EvidenceRecord*> out;
  auto it = runs_.find(run_label);
  if (it == runs_.end()) return out;
  out.reserve(it->second.size());
  for (std::size_t index : it->second) out.push_back(&records_[index]);
  return out;
}

std::vector<std::string> EvidenceLog::run_labels() const {
  std::vector<std::string> out;
  out.reserve(runs_.size());
  for (const auto& [label, indices] : runs_) out.push_back(label);
  return out;
}

bool EvidenceLog::verify_chain() const {
  crypto::Digest prev{};
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const EvidenceRecord& rec = records_[i];
    if (rec.index != i) return false;
    if (rec.prev_hash != prev) return false;
    if (rec.record_hash != rec.compute_hash()) return false;
    prev = rec.record_hash;
  }
  return true;
}

void EvidenceLog::save(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) throw StoreError("cannot open for write: " + path);
  for (const auto& rec : records_) {
    Bytes encoded = rec.encode();
    wire::Encoder frame;
    frame.u32(static_cast<std::uint32_t>(encoded.size()));
    const Bytes& header = frame.bytes();
    if (std::fwrite(header.data(), 1, header.size(), file) != header.size() ||
        std::fwrite(encoded.data(), 1, encoded.size(), file) !=
            encoded.size()) {
      std::fclose(file);
      throw StoreError("short write: " + path);
    }
  }
  std::fclose(file);
}

EvidenceLog EvidenceLog::load(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) throw StoreError("cannot open for read: " + path);
  EvidenceLog log;
  for (;;) {
    std::uint8_t header[4];
    std::size_t got = std::fread(header, 1, 4, file);
    if (got == 0) break;
    if (got != 4) {
      std::fclose(file);
      throw StoreError("truncated record header: " + path);
    }
    std::uint32_t len = 0;
    for (int i = 3; i >= 0; --i) len = (len << 8) | header[i];
    Bytes body(len);
    if (std::fread(body.data(), 1, len, file) != len) {
      std::fclose(file);
      throw StoreError("truncated record body: " + path);
    }
    try {
      log.records_.push_back(EvidenceRecord::decode(body));
    } catch (const CodecError& e) {
      std::fclose(file);
      throw StoreError("corrupt record in " + path + ": " + e.what());
    }
  }
  std::fclose(file);
  return log;
}

}  // namespace b2b::store
