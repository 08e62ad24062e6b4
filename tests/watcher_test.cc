// Tests for the WATCH verb's directory poller: epoch-order listing,
// at-most-once delivery, files landing between polls, and the interplay
// with CheckpointPath's zero padding.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/trainer.h"
#include "service/checkpoint_watcher.h"
#include "tests/temp_dir.h"

namespace kgeval {
namespace {

void Touch(const std::string& path, const std::string& contents = "x") {
  std::ofstream out(path, std::ios::binary);
  out << contents;
}

TEST(CheckpointEpochKeyTest, ParsesLastDigitRunInStem) {
  EXPECT_EQ(CheckpointEpochKey("epoch_00012.ckpt"), 12);
  EXPECT_EQ(CheckpointEpochKey("epoch_100000.ckpt"), 100000);
  // The *last* digit run in the stem wins, not the first.
  EXPECT_EQ(CheckpointEpochKey("run3_epoch_7.ckpt"), 7);
  // The extension's digits (if any) are not the stem's.
  EXPECT_EQ(CheckpointEpochKey("epoch_5.v2"), 5);
}

TEST(CheckpointEpochKeyTest, NamesWithoutDigitsSortLast) {
  EXPECT_EQ(CheckpointEpochKey("final.ckpt"), INT64_MAX);
  EXPECT_LT(CheckpointEpochKey("epoch_99999.ckpt"),
            CheckpointEpochKey("final.ckpt"));
}

TEST(ListCheckpointFilesTest, SortsNumericallyNotLexicographically) {
  TempDir dir;
  // Deliberately created out of order, and with epoch 100000 — which
  // lexicographically sorts *before* epoch_00002 under fixed-width-5
  // padding. Numeric epoch order must win.
  Touch(dir.path() + "/epoch_100000.ckpt");
  Touch(dir.path() + "/epoch_00002.ckpt");
  Touch(dir.path() + "/epoch_00010.ckpt");
  auto files = ListCheckpointFiles(dir.path());
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  EXPECT_EQ(files.ValueOrDie(),
            (std::vector<std::string>{dir.path() + "/epoch_00002.ckpt",
                                      dir.path() + "/epoch_00010.ckpt",
                                      dir.path() + "/epoch_100000.ckpt"}));
}

TEST(ListCheckpointFilesTest, SkipsTmpFilesAndOtherExtensions) {
  TempDir dir;
  Touch(dir.path() + "/epoch_00001.ckpt");
  // An in-progress write the Trainer has not yet renamed into place.
  Touch(dir.path() + "/epoch_00002.ckpt.tmp");
  Touch(dir.path() + "/notes.txt");
  auto files = ListCheckpointFiles(dir.path());
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files.ValueOrDie(),
            (std::vector<std::string>{dir.path() + "/epoch_00001.ckpt"}));
}

TEST(ListCheckpointFilesTest, MissingDirectoryIsAnError) {
  TempDir dir;
  auto files = ListCheckpointFiles(dir.path() + "/nope");
  EXPECT_FALSE(files.ok());
}

TEST(CheckpointWatcherTest, DeliversEachFileExactlyOnce) {
  TempDir dir;
  Touch(dir.path() + "/epoch_00000.ckpt");
  Touch(dir.path() + "/epoch_00001.ckpt");
  CheckpointWatcher watcher(dir.path());
  auto first = watcher.Poll();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.ValueOrDie().size(), 2u);
  // Nothing new: the same files must not be re-delivered.
  auto second = watcher.Poll();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.ValueOrDie().empty());
}

TEST(CheckpointWatcherTest, PicksUpFilesLandingBetweenPolls) {
  TempDir dir;
  Touch(dir.path() + "/epoch_00000.ckpt");
  CheckpointWatcher watcher(dir.path());
  ASSERT_EQ(watcher.Poll().ValueOrDie().size(), 1u);
  // The trainer publishes two more snapshots mid-watch.
  Touch(dir.path() + "/epoch_00001.ckpt");
  Touch(dir.path() + "/epoch_00002.ckpt");
  auto fresh = watcher.Poll();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.ValueOrDie(),
            (std::vector<std::string>{dir.path() + "/epoch_00001.ckpt",
                                      dir.path() + "/epoch_00002.ckpt"}));
}

TEST(CheckpointWatcherTest, ClaimedPathStaysClaimedEvenIfUnreadable) {
  // The service reports a truncated checkpoint as ITEM ... ERR and moves
  // on; the watcher's contract backing that is: delivery is by filename,
  // once, regardless of what evaluating the file later does.
  TempDir dir;
  Touch(dir.path() + "/epoch_00000.ckpt", "garbage, not a checkpoint");
  CheckpointWatcher watcher(dir.path());
  ASSERT_EQ(watcher.Poll().ValueOrDie().size(), 1u);
  EXPECT_TRUE(watcher.Poll().ValueOrDie().empty());
  // Even after the file is replaced with valid contents under the same
  // name — at-most-once is by name, not by content.
  Touch(dir.path() + "/epoch_00000.ckpt", "different bytes");
  EXPECT_TRUE(watcher.Poll().ValueOrDie().empty());
}

TEST(CheckpointWatcherTest, DirectoryErrorClaimsNothing) {
  TempDir dir;
  const std::string sub = dir.path() + "/ckpts";
  CheckpointWatcher watcher(sub);
  // Directory does not exist yet: an error, and no state change.
  EXPECT_FALSE(watcher.Poll().ok());
  // Once it appears, everything in it is delivered (nothing was claimed
  // during the failed polls).
  std::filesystem::create_directories(sub);
  Touch(sub + "/epoch_00000.ckpt");
  auto fresh = watcher.Poll();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.ValueOrDie().size(), 1u);
}

TEST(CheckpointPathTest, PadWidthFollowsTotalEpochs) {
  EXPECT_EQ(CheckpointPath("d", 7), "d/epoch_00007.ckpt");
  EXPECT_EQ(CheckpointPath("d", 7, 100), "d/epoch_00007.ckpt");
  // A run whose largest epoch index needs six digits pads to six
  // everywhere, keeping the directory's lexicographic order equal to
  // epoch order.
  EXPECT_EQ(CheckpointPath("d", 7, 200000), "d/epoch_000007.ckpt");
  EXPECT_EQ(CheckpointPath("d", 199999, 200000), "d/epoch_199999.ckpt");
}

}  // namespace
}  // namespace kgeval
