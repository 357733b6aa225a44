// Persistence substrate: hash-chained evidence log (incl. tamper
// detection, file round trips and the run index).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/error.hpp"
#include "store/evidence_log.hpp"

namespace b2b::store {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("b2b_test_" + name))
      .string();
}

// --- EvidenceLog --------------------------------------------------------------

TEST(EvidenceLogTest, AppendAssignsIndicesAndChains) {
  EvidenceLog log;
  const EvidenceRecord& first = log.append("kind.a", Bytes{1}, 100);
  EXPECT_EQ(first.index, 0u);
  EXPECT_EQ(first.prev_hash, crypto::Digest{});
  const EvidenceRecord& second = log.append("kind.b", Bytes{2}, 200);
  EXPECT_EQ(second.index, 1u);
  EXPECT_EQ(second.prev_hash, log.at(0).record_hash);
  EXPECT_TRUE(log.verify_chain());
}

TEST(EvidenceLogTest, EmptyChainVerifies) {
  EvidenceLog log;
  EXPECT_TRUE(log.verify_chain());
  EXPECT_TRUE(log.empty());
}

TEST(EvidenceLogTest, FindKindFiltersRecords) {
  EvidenceLog log;
  log.append("violation", Bytes{1}, 1);
  log.append("propose.sent", Bytes{2}, 2);
  log.append("violation", Bytes{3}, 3);
  auto violations = log.find_kind("violation");
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0]->payload, Bytes{1});
  EXPECT_EQ(violations[1]->payload, Bytes{3});
  EXPECT_TRUE(log.find_kind("absent").empty());
}

TEST(EvidenceLogTest, AtOutOfRangeThrows) {
  EvidenceLog log;
  EXPECT_THROW(log.at(0), std::out_of_range);
}

TEST(EvidenceLogTest, RecordRoundTripsThroughBytes) {
  EvidenceLog log;
  log.append("k", Bytes{9, 9, 9}, 123456);
  EvidenceRecord decoded = EvidenceRecord::decode(log.at(0).encode());
  EXPECT_EQ(decoded, log.at(0));
}

TEST(EvidenceLogTest, SaveLoadRoundTrip) {
  std::string path = temp_path("evidence.log");
  EvidenceLog log;
  for (int i = 0; i < 20; ++i) {
    log.append("kind." + std::to_string(i % 3),
               Bytes(static_cast<std::size_t>(i), static_cast<uint8_t>(i)),
               static_cast<std::uint64_t>(i) * 1000);
  }
  log.save(path);
  EvidenceLog loaded = EvidenceLog::load(path);
  EXPECT_EQ(loaded.size(), 20u);
  EXPECT_TRUE(loaded.verify_chain());
  EXPECT_EQ(loaded.records(), log.records());
  std::remove(path.c_str());
}

TEST(EvidenceLogTest, LoadMissingFileThrows) {
  EXPECT_THROW(EvidenceLog::load("/nonexistent/dir/evidence.log"),
               StoreError);
}

TEST(EvidenceLogTest, TamperedFileFailsChainVerification) {
  std::string path = temp_path("tampered.log");
  EvidenceLog log;
  log.append("a", bytes_of("first"), 1);
  log.append("b", bytes_of("second"), 2);
  log.save(path);

  // Flip one payload byte in the file.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 60, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, 60, SEEK_SET);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);

  bool detected = false;
  try {
    EvidenceLog loaded = EvidenceLog::load(path);
    detected = !loaded.verify_chain();
  } catch (const StoreError&) {
    detected = true;  // corruption broke framing entirely
  }
  EXPECT_TRUE(detected);
  std::remove(path.c_str());
}

TEST(EvidenceLogTest, TruncatedFileThrows) {
  std::string path = temp_path("truncated.log");
  EvidenceLog log;
  log.append("a", Bytes(100, 7), 1);
  log.save(path);
  std::filesystem::resize_file(path, 50);
  EXPECT_THROW(EvidenceLog::load(path), StoreError);
  std::remove(path.c_str());
}

// --- The evidence log's run index (the message store) --------------------------

TEST(MessageStoreTest, GroupsMessagesByRun) {
  EvidenceLog log;
  log.append("propose.sent", Bytes{1}, 10, {"run1"});
  log.append("respond.recv", Bytes{2}, 20, {"run1"});
  log.append("decide.sent", Bytes{3}, 30, {"run2"});
  EXPECT_EQ(log.run("run1").size(), 2u);
  EXPECT_EQ(log.run("run2").size(), 1u);
  EXPECT_TRUE(log.run("run3").empty());
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.run_labels(), (std::vector<std::string>{"run1", "run2"}));

  // The labels sit beside the records, outside their hashed bytes: the
  // chain is the one an unlabelled log builds.
  EvidenceLog plain;
  plain.append("propose.sent", Bytes{1}, 10);
  plain.append("respond.recv", Bytes{2}, 20);
  plain.append("decide.sent", Bytes{3}, 30);
  EXPECT_EQ(log.records(), plain.records());
  EXPECT_TRUE(plain.run_labels().empty());
}

TEST(MessageStoreTest, PreservesOrderWithinRun) {
  EvidenceLog log;
  for (int i = 0; i < 10; ++i) {
    log.append("propose.sent", Bytes{static_cast<uint8_t>(i)}, 0, {"r"});
    log.append("propose.sent", Bytes{0xff}, 0, {"other"});
  }
  const auto records = log.run("r");
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)]->payload[0], i);
  }
}

TEST(MessageStoreTest, RunLabelsSorted) {
  EvidenceLog log;
  log.append("k", {}, 0, {"b"});
  log.append("k", {}, 0, {"a"});
  log.append("k", {}, 0, {"c", "a"});  // one record, two runs
  EXPECT_EQ(log.run_labels(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(log.run("a").size(), 2u);
}

}  // namespace
}  // namespace b2b::store
