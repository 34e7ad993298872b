#include "data/io.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "data/synth/world_generator.h"
#include "scratch_dir.h"

namespace sttr {
namespace {

// Per-test directory: the fixed dataset filenames would otherwise collide
// when ctest -j runs several DatasetIoTest cases concurrently.
std::string TestDir() {
  return testing_util::TestScratchDir("sttr_io");
}

TEST(DatasetIoTest, PathsInDirectory) {
  const auto p = DatasetPaths::InDirectory("/data");
  EXPECT_EQ(p.cities, "/data/cities.tsv");
  EXPECT_EQ(p.users, "/data/users.tsv");
  EXPECT_EQ(p.pois, "/data/pois.tsv");
  EXPECT_EQ(p.checkins, "/data/checkins.tsv");
}

TEST(DatasetIoTest, RoundTripPreservesEverything) {
  auto world =
      synth::GenerateWorld(synth::SynthWorldConfig::FoursquareLike(
          synth::Scale::kTiny));
  const Dataset& original = world.dataset;
  const auto paths = DatasetPaths::InDirectory(TestDir());
  ASSERT_TRUE(SaveDataset(original, paths).ok());

  auto loaded = LoadDataset(paths);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Dataset& ds = *loaded;

  ASSERT_EQ(ds.num_cities(), original.num_cities());
  ASSERT_EQ(ds.num_users(), original.num_users());
  ASSERT_EQ(ds.num_pois(), original.num_pois());
  ASSERT_EQ(ds.num_checkins(), original.num_checkins());
  // Unused vocabulary entries are not representable in the format.
  EXPECT_LE(ds.vocabulary().size(), original.vocabulary().size());

  for (size_t c = 0; c < ds.num_cities(); ++c) {
    EXPECT_EQ(ds.city(static_cast<CityId>(c)).name,
              original.city(static_cast<CityId>(c)).name);
  }
  for (PoiId v = 0; v < static_cast<PoiId>(ds.num_pois()); ++v) {
    EXPECT_EQ(ds.poi(v).city, original.poi(v).city);
    EXPECT_NEAR(ds.poi(v).location.lat, original.poi(v).location.lat, 1e-8);
    ASSERT_EQ(ds.poi(v).words.size(), original.poi(v).words.size());
    for (size_t i = 0; i < ds.poi(v).words.size(); ++i) {
      EXPECT_EQ(ds.vocabulary().WordOf(ds.poi(v).words[i]),
                original.vocabulary().WordOf(original.poi(v).words[i]));
    }
  }
  for (size_t i = 0; i < ds.num_checkins(); ++i) {
    EXPECT_EQ(ds.checkins()[i].user, original.checkins()[i].user);
    EXPECT_EQ(ds.checkins()[i].poi, original.checkins()[i].poi);
    EXPECT_EQ(ds.checkins()[i].city, original.checkins()[i].city);
  }
  // Statistics identical -> downstream experiments identical.
  const auto a = original.ComputeStats(0);
  const auto b = ds.ComputeStats(0);
  EXPECT_EQ(a.num_crossing_users, b.num_crossing_users);
  EXPECT_EQ(a.num_crossing_checkins, b.num_crossing_checkins);
}

TEST(DatasetIoTest, SecondRoundTripIsIdentity) {
  auto world = synth::GenerateWorld(
      synth::SynthWorldConfig::FoursquareLike(synth::Scale::kTiny));
  const auto paths = DatasetPaths::InDirectory(TestDir());
  ASSERT_TRUE(SaveDataset(world.dataset, paths).ok());
  auto first = LoadDataset(paths);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(SaveDataset(*first, paths).ok());
  auto second = LoadDataset(paths);
  ASSERT_TRUE(second.ok());
  // After one round trip the representation is a fixpoint: identical ids.
  ASSERT_EQ(first->vocabulary().size(), second->vocabulary().size());
  for (PoiId v = 0; v < static_cast<PoiId>(first->num_pois()); ++v) {
    EXPECT_EQ(first->poi(v).words, second->poi(v).words);
  }
}

TEST(DatasetIoTest, MissingFileIsIOError) {
  auto paths = DatasetPaths::InDirectory("/nonexistent-dir-xyz");
  auto r = LoadDataset(paths);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(DatasetIoTest, CommentsAndBlankLinesSkipped) {
  const std::string dir = TestDir();
  auto paths = DatasetPaths::InDirectory(dir);
  std::ofstream(paths.cities)
      << "# comment\n\n0\tmetropolis\t0.0\t1.0\t0.0\t1.0\n";
  std::ofstream(paths.users) << "0\t0\n";
  std::ofstream(paths.pois) << "0\t0\t0.5\t0.5\tpark scenic\n";
  std::ofstream(paths.checkins) << "0\t0\t1.5\n";
  auto r = LoadDataset(paths);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_cities(), 1u);
  EXPECT_EQ(r->vocabulary().size(), 2u);
  EXPECT_EQ(r->checkins()[0].city, 0);
}

TEST(DatasetIoTest, MalformedLinesReportFileAndLine) {
  const std::string dir = TestDir();
  auto paths = DatasetPaths::InDirectory(dir);
  std::ofstream(paths.cities) << "0\tmetropolis\t0.0\t1.0\t0.0\n";  // 5 fields
  auto r = LoadDataset(paths);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("cities.tsv:1"), std::string::npos);
}

TEST(DatasetIoTest, NonDenseIdsRejected) {
  const std::string dir = TestDir();
  auto paths = DatasetPaths::InDirectory(dir);
  std::ofstream(paths.cities) << "1\tmetropolis\t0.0\t1.0\t0.0\t1.0\n";
  auto r = LoadDataset(paths);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("dense"), std::string::npos);
}

TEST(DatasetIoTest, OutOfRangeReferencesRejected) {
  const std::string dir = TestDir();
  auto paths = DatasetPaths::InDirectory(dir);
  std::ofstream(paths.cities) << "0\tm\t0.0\t1.0\t0.0\t1.0\n";
  std::ofstream(paths.users) << "0\t7\n";  // city 7 does not exist
  auto r = LoadDataset(paths);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("out of range"), std::string::npos);
}

TEST(DatasetIoTest, BadNumberRejected) {
  const std::string dir = TestDir();
  auto paths = DatasetPaths::InDirectory(dir);
  std::ofstream(paths.cities) << "0\tm\tnot_a_number\t1.0\t0.0\t1.0\n";
  auto r = LoadDataset(paths);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("not a number"), std::string::npos);
}

// A loadable base world the coordinate-validation tests corrupt one file of.
struct ValidFiles {
  std::string dir;
  DatasetPaths paths;
};

ValidFiles WriteValidWorld() {
  ValidFiles f{TestDir(), {}};
  f.paths = DatasetPaths::InDirectory(f.dir);
  std::ofstream(f.paths.cities) << "0\tm\t0.0\t1.0\t0.0\t1.0\n";
  std::ofstream(f.paths.users) << "0\t0\n";
  std::ofstream(f.paths.pois) << "0\t0\t0.5\t0.5\tpark\n";
  std::ofstream(f.paths.checkins) << "0\t0\t1.5\n";
  return f;
}

void ExpectRejected(const DatasetPaths& paths, const std::string& file_and_line,
                    const std::string& what) {
  auto r = LoadDataset(paths);
  ASSERT_FALSE(r.ok()) << "expected rejection: " << what;
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find(file_and_line), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find(what), std::string::npos)
      << r.status().message();
}

TEST(DatasetIoTest, NonFinitePoiCoordinateRejected) {
  auto f = WriteValidWorld();
  std::ofstream(f.paths.pois) << "0\t0\tnan\t0.5\tpark\n";
  ExpectRejected(f.paths, "pois.tsv:1", "non-finite");
  std::ofstream(f.paths.pois) << "0\t0\t0.5\tinf\tpark\n";
  ExpectRejected(f.paths, "pois.tsv:1", "non-finite");
}

TEST(DatasetIoTest, OutOfBoundsPoiLatitudeRejected) {
  auto f = WriteValidWorld();
  std::ofstream(f.paths.pois) << "0\t0\t91.0\t0.5\tpark\n";
  ExpectRejected(f.paths, "pois.tsv:1", "latitude out of range");
  std::ofstream(f.paths.pois) << "0\t0\t-90.5\t0.5\tpark\n";
  ExpectRejected(f.paths, "pois.tsv:1", "latitude out of range");
}

TEST(DatasetIoTest, OutOfBoundsPoiLongitudeRejected) {
  auto f = WriteValidWorld();
  std::ofstream(f.paths.pois) << "0\t0\t0.5\t180.5\tpark\n";
  ExpectRejected(f.paths, "pois.tsv:1", "longitude out of range");
}

TEST(DatasetIoTest, LineNumberCountsPhysicalLines) {
  auto f = WriteValidWorld();
  // The bad POI sits on physical line 3 (after a comment and a valid line,
  // with a second valid POI following).
  std::ofstream(f.paths.pois)
      << "# header\n0\t0\t0.5\t0.5\tpark\n1\t0\t200.0\t0.5\tcafe\n";
  ExpectRejected(f.paths, "pois.tsv:3", "latitude out of range");
}

TEST(DatasetIoTest, NonFiniteCityBoxRejected) {
  auto f = WriteValidWorld();
  std::ofstream(f.paths.cities) << "0\tm\t0.0\tinf\t0.0\t1.0\n";
  ExpectRejected(f.paths, "cities.tsv:1", "non-finite");
}

TEST(DatasetIoTest, InvertedCityBoxRejected) {
  auto f = WriteValidWorld();
  std::ofstream(f.paths.cities) << "0\tm\t1.0\t0.0\t0.0\t1.0\n";
  ExpectRejected(f.paths, "cities.tsv:1", "inverted bounding box");
}

TEST(DatasetIoTest, OutOfRangePoiCityRejected) {
  auto f = WriteValidWorld();
  std::ofstream(f.paths.pois) << "0\t3\t0.5\t0.5\tpark\n";
  ExpectRejected(f.paths, "pois.tsv:1", "city_id out of range");
}

TEST(DatasetIoTest, OutOfRangeCheckinReferencesRejected) {
  auto f = WriteValidWorld();
  std::ofstream(f.paths.checkins) << "5\t0\t1.5\n";
  ExpectRejected(f.paths, "checkins.tsv:1", "user_id out of range");
  std::ofstream(f.paths.checkins) << "0\t5\t1.5\n";
  ExpectRejected(f.paths, "checkins.tsv:1", "poi_id out of range");
}

TEST(DatasetIoTest, NegativeIdsRejected) {
  auto f = WriteValidWorld();
  std::ofstream(f.paths.checkins) << "-1\t0\t1.5\n";
  ExpectRejected(f.paths, "checkins.tsv:1", "user_id out of range");
}

}  // namespace
}  // namespace sttr
