// Unit tests for the v3 delta checkpoint format (core/delta.h): container
// roundtrip, provenance fields, corruption/version rejection, the
// delta-directory naming scheme, torn-file skipping and rotation.

#include "core/delta.h"

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "scratch_dir.h"

namespace sttr {
namespace {

std::string DeltaTestDir() {
  return testing_util::TestScratchDir("sttr_delta");
}

/// A fully populated delta with distinct content per table.
DeltaCheckpoint MakeDelta(uint64_t seq) {
  DeltaCheckpoint d;
  d.base_epoch = 7;
  d.base_model_crc = 0xdeadbeef;
  d.seq = seq;
  d.events_applied = 96;
  d.config_fingerprint = "fp:test";
  d.user.dim = 4;
  d.user.rows = {2, 5};
  d.user.values = {1, 2, 3, 4, 5, 6, 7, 8};
  d.poi.dim = 4;
  d.poi.rows = {0};
  d.poi.values = {9, 10, 11, 12};
  d.word.dim = 4;  // zero rows is legal: no word touched this delta
  return d;
}

TEST(DeltaCheckpointTest, EncodeParseRoundtrip) {
  const DeltaCheckpoint d = MakeDelta(3);
  const std::string bytes = EncodeDeltaCheckpoint(d);
  StatusOr<CheckpointReader> reader = CheckpointReader::Parse(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->version(), kDeltaCheckpointFormatVersion);

  StatusOr<DeltaCheckpoint> back = ParseDeltaCheckpoint(*reader);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->base_epoch, 7u);
  EXPECT_EQ(back->base_model_crc, 0xdeadbeefu);
  EXPECT_EQ(back->seq, 3u);
  EXPECT_EQ(back->events_applied, 96u);
  EXPECT_EQ(back->config_fingerprint, "fp:test");
  EXPECT_EQ(back->user.rows, d.user.rows);
  EXPECT_EQ(back->user.values, d.user.values);
  EXPECT_EQ(back->poi.rows, d.poi.rows);
  EXPECT_EQ(back->poi.values, d.poi.values);
  EXPECT_EQ(back->word.num_rows(), 0u);
  EXPECT_TRUE(back->dense_params.empty());
  EXPECT_EQ(back->total_rows(), 3u);
}

TEST(DeltaCheckpointTest, DensePayloadRoundtrips) {
  DeltaCheckpoint d = MakeDelta(1);
  d.dense_params = std::string("\x01\x02\x00\x03", 4);
  StatusOr<CheckpointReader> reader =
      CheckpointReader::Parse(EncodeDeltaCheckpoint(d));
  ASSERT_TRUE(reader.ok());
  StatusOr<DeltaCheckpoint> back = ParseDeltaCheckpoint(*reader);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->dense_params, d.dense_params);
}

TEST(DeltaCheckpointTest, WriteReadRoundtrip) {
  const std::string dir = DeltaTestDir();
  const std::string path = dir + "/" + DeltaFileName(1);
  ASSERT_TRUE(WriteDeltaCheckpoint(*Env::Default(), path, MakeDelta(1)).ok());
  StatusOr<DeltaCheckpoint> back = ReadDeltaCheckpoint(*Env::Default(), path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->seq, 1u);
  EXPECT_EQ(back->user.num_rows(), 2u);
}

TEST(DeltaCheckpointTest, RejectsNonDeltaVersion) {
  // A well-formed v1 container is not a delta and must be refused, not
  // misparsed.
  CheckpointWriter writer(kCheckpointFormatVersion);
  writer.AddSection("meta", std::string(8, '\0'));
  StatusOr<CheckpointReader> reader = CheckpointReader::Parse(writer.Encode());
  ASSERT_TRUE(reader.ok());
  StatusOr<DeltaCheckpoint> parsed = ParseDeltaCheckpoint(*reader);
  EXPECT_FALSE(parsed.ok());
}

TEST(DeltaCheckpointTest, CorruptionIsDetected) {
  std::string bytes = EncodeDeltaCheckpoint(MakeDelta(2));
  // Flip one payload byte near the end: some section's CRC must catch it.
  bytes[bytes.size() - 3] ^= 0x40;
  StatusOr<CheckpointReader> reader = CheckpointReader::Parse(bytes);
  EXPECT_FALSE(reader.ok());
}

TEST(DeltaCheckpointTest, TruncatedRowSectionRejected) {
  // A well-formed v3 container whose row section claims 2 rows but carries
  // bytes for 1: the container CRC passes, so only the decode-time size
  // check can refuse it.
  CheckpointWriter writer(kDeltaCheckpointFormatVersion);
  std::string meta;
  AppendU64(meta, 7);           // base_epoch
  AppendU32(meta, 0xdeadbeef);  // base_model_crc
  AppendU64(meta, 1);           // seq
  AppendU64(meta, 1);           // events
  writer.AddSection("delta_meta", std::move(meta));
  writer.AddSection("config", "fp:test");
  std::string rows;
  AppendU64(rows, 4);                    // dim
  AppendU64(rows, 2);                    // claims two rows...
  AppendU64(rows, 2);                    // row id
  rows.append(4 * sizeof(float), '\0');  // ...carries one
  writer.AddSection("delta_rows_user", std::move(rows));
  std::string empty_table;
  AppendU64(empty_table, 4);
  AppendU64(empty_table, 0);
  writer.AddSection("delta_rows_poi", empty_table);
  writer.AddSection("delta_rows_word", empty_table);

  StatusOr<CheckpointReader> reader = CheckpointReader::Parse(writer.Encode());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  StatusOr<DeltaCheckpoint> parsed = ParseDeltaCheckpoint(*reader);
  EXPECT_FALSE(parsed.ok());
}

TEST(DeltaFileNameTest, Roundtrip) {
  EXPECT_EQ(DeltaFileName(7), "delta-000007.sttr");
  StatusOr<uint64_t> seq = ParseDeltaSeq("delta-000042.sttr");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 42u);
  EXPECT_FALSE(ParseDeltaSeq("ckpt-000042.sttr").ok());
  EXPECT_FALSE(ParseDeltaSeq("delta-000042.sttr.tmp.123").ok());
  EXPECT_FALSE(ParseDeltaSeq("delta-.sttr").ok());
}

TEST(DeltaDirTest, FindLatestSkipsTornNewest) {
  const std::string dir = DeltaTestDir();
  Env& env = *Env::Default();
  ASSERT_TRUE(
      WriteDeltaCheckpoint(env, dir + "/" + DeltaFileName(1), MakeDelta(1))
          .ok());
  ASSERT_TRUE(
      WriteDeltaCheckpoint(env, dir + "/" + DeltaFileName(2), MakeDelta(2))
          .ok());
  // Newest is torn mid-write: truncate its bytes.
  StatusOr<std::string> full = env.ReadFile(dir + "/" + DeltaFileName(2));
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(env.WriteFile(dir + "/" + DeltaFileName(2),
                            std::string_view(*full).substr(0, full->size() / 2))
                  .ok());
  StatusOr<std::string> latest = FindLatestValidDelta(env, dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(*latest, dir + "/" + DeltaFileName(1));
}

TEST(DeltaDirTest, FindLatestEmptyDirIsNotFound) {
  const std::string dir = DeltaTestDir();
  StatusOr<std::string> latest = FindLatestValidDelta(*Env::Default(), dir);
  EXPECT_FALSE(latest.ok());
  EXPECT_EQ(latest.status().code(), StatusCode::kNotFound);
}

TEST(DeltaDirTest, RotateKeepsNewestK) {
  const std::string dir = DeltaTestDir();
  Env& env = *Env::Default();
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(WriteDeltaCheckpoint(env, dir + "/" + DeltaFileName(seq),
                                     MakeDelta(seq))
                    .ok());
  }
  ASSERT_TRUE(RotateDeltas(env, dir, 2).ok());
  StatusOr<std::vector<std::string>> names = env.ListDir(dir);
  ASSERT_TRUE(names.ok());
  std::vector<std::string> kept = *names;
  std::sort(kept.begin(), kept.end());
  EXPECT_EQ(kept,
            (std::vector<std::string>{DeltaFileName(4), DeltaFileName(5)}));
  EXPECT_FALSE(RotateDeltas(env, dir, 0).ok());
}

}  // namespace
}  // namespace sttr
