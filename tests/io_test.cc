#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <numeric>

#include "graph/io.h"
#include "models/checkpoint.h"
#include "models/trainer.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "tests/checkpoint_header.h"
#include "tests/temp_dir.h"

namespace kgeval {
namespace {

namespace fs = std::filesystem;

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

// --- TSV dataset loading --------------------------------------------------------

TEST(TsvLoadTest, BuildsVocabulariesFromLabels) {
  TempDir dir;
  WriteFile(dir.path() + "/train.txt",
            "paris\tcapital_of\tfrance\n"
            "berlin\tcapital_of\tgermany\n"
            "paris\tlocated_in\tfrance\n");
  WriteFile(dir.path() + "/test.txt", "berlin\tlocated_in\tgermany\n");
  auto result = LoadDatasetFromTsv(dir.path(), "cities");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Dataset& d = result.ValueOrDie();
  EXPECT_EQ(d.num_entities(), 4);
  EXPECT_EQ(d.num_relations(), 2);
  EXPECT_EQ(d.train().size(), 3u);
  EXPECT_EQ(d.test().size(), 1u);
  EXPECT_TRUE(d.valid().empty());
  EXPECT_EQ(d.EntityLabel(0), "paris");
  EXPECT_EQ(d.RelationLabel(0), "capital_of");
  // paris appears twice -> same id.
  EXPECT_EQ(d.train()[0].head, d.train()[2].head);
}

TEST(TsvLoadTest, LoadsTypes) {
  TempDir dir;
  WriteFile(dir.path() + "/train.txt", "a\tr\tb\n");
  WriteFile(dir.path() + "/types.txt",
            "a\tperson\n"
            "b\tcity\n"
            "a\tartist\n");
  const Dataset d = LoadDatasetFromTsv(dir.path()).ValueOrDie();
  ASSERT_TRUE(d.has_types());
  EXPECT_EQ(d.types().num_types(), 3);
  EXPECT_EQ(d.types().TypesOf(0).size(), 2u);  // a: person + artist.
}

TEST(TsvLoadTest, MissingTrainIsIoError) {
  TempDir dir;
  EXPECT_EQ(LoadDatasetFromTsv(dir.path()).status().code(),
            StatusCode::kIoError);
}

TEST(TsvLoadTest, UnreadableFileIsIoError) {
  // A directory opens as an ifstream but every read fails: the loader must
  // report it, not load the file as empty.
  for (const char* file : {"train.txt", "valid.txt", "types.txt"}) {
    SCOPED_TRACE(file);
    TempDir dir;
    if (std::string(file) != "train.txt") {
      WriteFile(dir.path() + "/train.txt", "a\tr\tb\n");
    }
    fs::create_directory(dir.path() + "/" + file);
    const Status status = LoadDatasetFromTsv(dir.path()).status();
    EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
    EXPECT_NE(status.message().find(file), std::string::npos)
        << status.ToString();
  }
}

TEST(TsvLoadTest, MalformedLineIsInvalidArgument) {
  TempDir dir;
  WriteFile(dir.path() + "/train.txt", "a\tr\tb\nbroken line\n");
  const Status status = LoadDatasetFromTsv(dir.path()).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(":2:"), std::string::npos);
}

TEST(TsvLoadTest, FourColumnLineIsInvalidArgument) {
  TempDir dir;
  WriteFile(dir.path() + "/train.txt", "a\tr\tb\n");
  WriteFile(dir.path() + "/test.txt", "b\tr\ta\t2001\n");
  const Status status = LoadDatasetFromTsv(dir.path()).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("test.txt:1:"), std::string::npos)
      << status.ToString();
}

TEST(TsvLoadTest, EmptyFieldIsInvalidArgument) {
  // An empty label would be a real entity, relation or type named "".
  for (const char* file : {"train.txt", "test.txt", "types.txt"}) {
    SCOPED_TRACE(file);
    TempDir dir;
    WriteFile(dir.path() + "/train.txt", "a\tr\tb\n");
    WriteFile(dir.path() + "/" + file, std::string(file) == "types.txt"
                                           ? "a\tperson\n\ta\n"
                                           : "a\tr\tb\na\t\tb\n");
    const Status status = LoadDatasetFromTsv(dir.path()).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(std::string(file) + ":2:"),
              std::string::npos)
        << status.ToString();
  }
}

TEST(TsvLoadTest, CrlfFilesLoadLikeTheirLfCopies) {
  SynthConfig config;
  config.num_entities = 60;
  config.num_relations = 4;
  config.num_types = 3;
  config.num_train = 300;
  config.num_valid = 30;
  config.num_test = 30;
  config.seed = 5;
  const Dataset original = GenerateDataset(config).ValueOrDie().dataset;
  TempDir lf, crlf;
  ASSERT_TRUE(SaveDatasetToTsv(original, lf.path()).ok());
  for (const char* file : {"train.txt", "valid.txt", "test.txt", "types.txt"}) {
    std::ifstream in(lf.path() + "/" + file);
    ASSERT_TRUE(in.is_open()) << file;
    std::string line, content;
    // A blank CRLF line is blank too.
    if (std::string(file) == "test.txt") content = "\r\n";
    while (std::getline(in, line)) content += line + "\r\n";
    WriteFile(crlf.path() + "/" + file, content);
  }
  auto lf_loaded = LoadDatasetFromTsv(lf.path());
  auto crlf_loaded = LoadDatasetFromTsv(crlf.path());
  ASSERT_TRUE(lf_loaded.ok()) << lf_loaded.status().ToString();
  ASSERT_TRUE(crlf_loaded.ok()) << crlf_loaded.status().ToString();
  const Dataset& a = lf_loaded.ValueOrDie();
  const Dataset& b = crlf_loaded.ValueOrDie();
  EXPECT_EQ(b.num_entities(), a.num_entities());
  EXPECT_EQ(b.num_relations(), a.num_relations());
  for (int32_t e = 0; e < a.num_entities(); ++e) {
    EXPECT_EQ(b.EntityLabel(e), a.EntityLabel(e));
    EXPECT_EQ(b.types().TypesOf(e), a.types().TypesOf(e));
  }
  for (int32_t r = 0; r < a.num_relations(); ++r) {
    EXPECT_EQ(b.RelationLabel(r), a.RelationLabel(r));
  }
  EXPECT_EQ(b.types().num_types(), a.types().num_types());
  for (Split split : {Split::kTrain, Split::kValid, Split::kTest}) {
    EXPECT_EQ(b.split(split), a.split(split));
  }
}

TEST(TsvRoundTripTest, SaveThenLoadPreservesStructure) {
  SynthConfig config;
  config.num_entities = 200;
  config.num_relations = 8;
  config.num_types = 6;
  config.num_train = 2000;
  config.num_valid = 150;
  config.num_test = 150;
  config.seed = 3;
  const Dataset original = GenerateDataset(config).ValueOrDie().dataset;

  TempDir dir;
  ASSERT_TRUE(SaveDatasetToTsv(original, dir.path()).ok());
  const Dataset loaded = LoadDatasetFromTsv(dir.path()).ValueOrDie();

  EXPECT_EQ(loaded.num_entities(), original.num_entities());
  EXPECT_EQ(loaded.num_relations(), original.num_relations());
  ASSERT_EQ(loaded.train().size(), original.train().size());
  ASSERT_EQ(loaded.test().size(), original.test().size());
  // Ids get remapped by first appearance, but labels must round-trip.
  for (size_t i = 0; i < 50; ++i) {
    const Triple& a = original.train()[i];
    const Triple& b = loaded.train()[i];
    EXPECT_EQ(original.EntityLabel(a.head), loaded.EntityLabel(b.head));
    EXPECT_EQ(original.RelationLabel(a.relation),
              loaded.RelationLabel(b.relation));
    EXPECT_EQ(original.EntityLabel(a.tail), loaded.EntityLabel(b.tail));
  }
}

TEST(TsvRoundTripTest, FullDiskIsIoError) {
  // /dev/full accepts the open and fails every write with ENOSPC: each
  // output file in turn stands in for a file on a full disk.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  SynthConfig config;
  config.num_entities = 100;
  config.num_relations = 4;
  config.num_types = 3;
  config.num_train = 500;
  config.num_valid = 40;
  config.num_test = 40;
  const Dataset dataset = GenerateDataset(config).ValueOrDie().dataset;
  ASSERT_TRUE(dataset.has_types());
  for (const char* file : {"train.txt", "valid.txt", "test.txt", "types.txt"}) {
    TempDir dir;
    fs::create_symlink("/dev/full", dir.path() + "/" + file);
    const Status status = SaveDatasetToTsv(dataset, dir.path());
    EXPECT_EQ(status.code(), StatusCode::kIoError)
        << file << ": " << status.ToString();
  }
}

// --- Model checkpointing ---------------------------------------------------------

class CheckpointTest : public ::testing::TestWithParam<ModelType> {};

TEST_P(CheckpointTest, RoundTripIsBitExact) {
  // Every stored float must come back with the identical bit pattern, and
  // every score with it. Each parameter is overwritten with a pattern no
  // seed draws, so the loaded model matches only if each table comes from
  // the file: a load draws no seeded init, and must leave no table unfilled.
  ModelOptions options;
  options.dim = 16;
  options.seed = 77;
  const int32_t num_entities = 30;
  auto model =
      CreateModel(GetParam(), num_entities, 6, options).ValueOrDie();
  std::vector<KgeModel::NamedParameter> original;
  model->CollectParameters(&original);
  for (size_t p = 0; p < original.size(); ++p) {
    float* values = original[p].matrix->data();
    for (size_t i = 0; i < original[p].matrix->size(); ++i) {
      values[i] = 0.01f * static_cast<float>((i * 37 + p * 11) % 101) - 0.5f;
    }
  }
  TempDir dir;
  const std::string path = dir.path() + "/model.ckpt";
  ASSERT_TRUE(SaveModel(model.get(), path).ok());

  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  KgeModel& restored = *loaded.ValueOrDie();
  EXPECT_EQ(restored.type(), GetParam());
  std::vector<KgeModel::NamedParameter> tables;
  restored.CollectParameters(&tables);
  ASSERT_EQ(tables.size(), original.size());
  for (size_t p = 0; p < original.size(); ++p) {
    EXPECT_STREQ(tables[p].name, original[p].name);
    ASSERT_EQ(tables[p].matrix->size(), original[p].matrix->size());
    EXPECT_EQ(std::memcmp(tables[p].matrix->data(),
                          original[p].matrix->data(),
                          original[p].matrix->size() * sizeof(float)),
              0)
        << "parameter '" << original[p].name << "' not bit-identical";
  }
  std::vector<int32_t> all(num_entities);
  std::iota(all.begin(), all.end(), 0);
  std::vector<float> want(num_entities), got(num_entities);
  for (int32_t anchor = 0; anchor < num_entities; ++anchor) {
    for (int32_t r = 0; r < model->num_relations(); ++r) {
      for (QueryDirection direction :
           {QueryDirection::kTail, QueryDirection::kHead}) {
        model->ScoreCandidates(anchor, r, direction, all.data(), all.size(),
                               want.data());
        restored.ScoreCandidates(anchor, r, direction, all.data(),
                                 all.size(), got.data());
        EXPECT_EQ(std::memcmp(want.data(), got.data(),
                              want.size() * sizeof(float)),
                  0)
            << "anchor " << anchor << " relation " << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, CheckpointTest,
                         ::testing::ValuesIn(kAllModelTypes),
                         [](const auto& info) {
                           return std::string(ModelTypeName(info.param));
                         });

TEST(CheckpointErrorsTest, GarbageFileRejected) {
  TempDir dir;
  const std::string path = dir.path() + "/garbage.ckpt";
  WriteFile(path, "this is not a checkpoint");
  EXPECT_FALSE(LoadModel(path).ok());
}

// --- Checkpoint robustness suite -------------------------------------------------

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::unique_ptr<KgeModel> SmallPerturbedModel(ModelType type) {
  ModelOptions options;
  options.dim = 16;  // ConvE's floor: >= 12 and divisible by 4.
  options.seed = 123;
  auto model = CreateModel(type, 12, 4, options).ValueOrDie();
  for (int i = 0; i < 24; ++i) {
    model->UpdateTriple(i % 12, i % 4, (i * 5 + 1) % 12,
                        QueryDirection::kTail, -0.25f);
  }
  return model;
}

TEST_P(CheckpointTest, SaveIsByteDeterministic) {
  // The v1 header used to be written as one raw struct, padding bytes and
  // all — two saves of the same model could differ in uninitialized bytes.
  // The explicit field serializer makes saving a pure function of the
  // parameters.
  auto model = SmallPerturbedModel(GetParam());
  TempDir dir;
  const std::string a = dir.path() + "/a.ckpt";
  const std::string b = dir.path() + "/b.ckpt";
  ASSERT_TRUE(SaveModel(model.get(), a).ok());
  ASSERT_TRUE(SaveModel(model.get(), b).ok());
  const std::string bytes_a = ReadFileBytes(a);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, ReadFileBytes(b));
}

TEST_P(CheckpointTest, TruncationAtEveryByteYieldsStatusNotCrash) {
  // Re-load the checkpoint truncated at every possible length (which
  // covers every field boundary): each must fail with a clean Status.
  auto model = SmallPerturbedModel(GetParam());
  TempDir dir;
  const std::string path = dir.path() + "/full.ckpt";
  ASSERT_TRUE(SaveModel(model.get(), path).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 48u);  // Magic + version + header at minimum.

  const std::string truncated_path = dir.path() + "/truncated.ckpt";
  for (size_t len = 0; len < bytes.size(); ++len) {
    {
      std::ofstream out(truncated_path,
                        std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(len));
    }
    auto result = LoadModel(truncated_path);
    EXPECT_FALSE(result.ok()) << "truncation at byte " << len
                              << " was accepted";
  }
}

TEST(CheckpointErrorsTest, GarbageMagicAndVersionRejected) {
  auto model = SmallPerturbedModel(ModelType::kTransE);
  TempDir dir;
  const std::string path = dir.path() + "/bad.ckpt";
  ASSERT_TRUE(SaveModel(model.get(), path).ok());
  std::string bytes = ReadFileBytes(path);

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  WriteFile(path, bad_magic);
  EXPECT_EQ(LoadModel(path).status().code(), StatusCode::kInvalidArgument);

  std::string bad_version = bytes;
  bad_version[4] = 99;  // Version int32 follows the 4-byte magic.
  WriteFile(path, bad_version);
  EXPECT_EQ(LoadModel(path).status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointErrorsTest, CorruptHeaderCountsRejected) {
  // A corrupt header must be rejected up front: negative counts used to
  // flow straight into CreateModel. On-disk field offsets after the 8-byte
  // magic+version preamble: model_type 0, num_entities 4, num_relations 8,
  // dim 12, reserved 16, pad 20, seed 24, num_params 32.
  auto model = SmallPerturbedModel(ModelType::kDistMult);
  TempDir dir;
  const std::string good_path = dir.path() + "/good.ckpt";
  ASSERT_TRUE(SaveModel(model.get(), good_path).ok());
  const std::string bytes = ReadFileBytes(good_path);

  const auto corrupt_int32_at = [&](size_t offset, int32_t value) {
    std::string corrupt = bytes;
    std::memcpy(&corrupt[8 + offset], &value, sizeof(value));
    const std::string path = dir.path() + "/corrupt.ckpt";
    WriteFile(path, corrupt);
    return LoadModel(path).status();
  };
  EXPECT_EQ(corrupt_int32_at(0, -1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(corrupt_int32_at(0, 999).code(), StatusCode::kInvalidArgument);
  // Types 5 and 7 were retired models; their files no longer load.
  for (int32_t type : {5, 7}) {
    const Status retired = corrupt_int32_at(0, type);
    EXPECT_EQ(retired.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(retired.message().find("invalid model type " +
                                     std::to_string(type)),
              std::string::npos)
        << retired.ToString();
  }
  EXPECT_EQ(corrupt_int32_at(4, -12).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(corrupt_int32_at(4, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(corrupt_int32_at(8, -4).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(corrupt_int32_at(12, -8).code(), StatusCode::kInvalidArgument);
  // Offset 16 is reserved: written as 0, anything else is corruption.
  EXPECT_EQ(corrupt_int32_at(16, -8).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(corrupt_int32_at(16, 8).code(), StatusCode::kInvalidArgument);
  // Absurdly *large* positive fields are corruption too: without the caps
  // a single bit-flip would reach CreateModel and die in a huge or
  // overflowing allocation instead of returning a Status.
  EXPECT_EQ(corrupt_int32_at(4, INT32_MAX).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(corrupt_int32_at(8, INT32_MAX).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(corrupt_int32_at(12, INT32_MAX).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(corrupt_int32_at(16, INT32_MAX).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(corrupt_int32_at(4, 1 << 29).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(corrupt_int32_at(32, -2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(corrupt_int32_at(32, 1 << 20).code(),
            StatusCode::kInvalidArgument);

  // Offsets 20 and 36 are padding: both ignored on read, because files
  // written before the explicit serializer carry uninitialized bytes there
  // and must stay loadable (the v1 byte-compat guarantee).
  EXPECT_TRUE(corrupt_int32_at(20, static_cast<int32_t>(0xDEADBEEF)).ok());
  EXPECT_TRUE(corrupt_int32_at(36, -1).ok());
}

TEST(CheckpointErrorsTest, HeaderOnlyFileClaimingHugeTablesFailsUpFront) {
  // Each 48-byte file is a header within every per-field cap that describes
  // far more parameter bytes than the file holds: a TransE entity table of
  // 2^27 x 64 (2^33 floats) and RESCAL's R x d^2 relation rows. The load
  // must fail as a truncated file before allocating any of it (it used to
  // zero-fill tens of GiB, or abort with an uncaught bad_alloc under a
  // memory limit).
  struct Claim {
    ModelType type;
    int32_t num_entities, num_relations, dim, num_params;
  };
  const Claim claims[] = {
      {ModelType::kTransE, 1 << 27, 1, 64, 2},
      {ModelType::kRescal, 1, 1 << 20, 1 << 12, 2},
  };
  TempDir dir;
  const std::string path = dir.path() + "/huge.ckpt";
  for (const Claim& claim : claims) {
    WriteHeaderOnlyCheckpoint(path, claim.type, claim.num_entities,
                              claim.num_relations, claim.dim,
                              claim.num_params);
    ASSERT_EQ(fs::file_size(path), 48u);
    const Status status = LoadModel(path).status();
    EXPECT_EQ(status.code(), StatusCode::kIoError)
        << ModelTypeName(claim.type) << ": " << status.ToString();
  }
}

TEST(CheckpointTrainerTest, TrainWritesEpochSnapshots) {
  SynthConfig config;
  config.num_entities = 120;
  config.num_relations = 5;
  config.num_types = 4;
  config.num_train = 1200;
  config.num_valid = 40;
  config.num_test = 40;
  const Dataset dataset = GenerateDataset(config).ValueOrDie().dataset;
  ModelOptions options;
  options.dim = 8;
  auto model = CreateModel(ModelType::kDistMult, 120, 5, options)
                   .ValueOrDie();
  TempDir dir;
  TrainerOptions trainer_options;
  trainer_options.epochs = 4;
  trainer_options.checkpoint_dir = dir.path() + "/snapshots";
  Trainer trainer(&dataset, trainer_options);
  ASSERT_TRUE(trainer.Train(model.get()).ok());

  // Every epoch is snapshotted.
  for (int32_t epoch = 0; epoch < 4; ++epoch) {
    EXPECT_TRUE(
        fs::exists(CheckpointPath(trainer_options.checkpoint_dir, epoch)))
        << epoch;
  }

  // The atomic-publish protocol leaves no .tmp files behind: every
  // snapshot was fully written under its temporary name, then renamed.
  for (const auto& entry :
       fs::directory_iterator(trainer_options.checkpoint_dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }

  // The final snapshot is loadable and bit-identical to the trained model.
  auto loaded =
      LoadModel(CheckpointPath(trainer_options.checkpoint_dir, 3));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie()->type(), ModelType::kDistMult);
  const int32_t tail = 3;
  float want = 0.0f, got = 0.0f;
  model->ScoreCandidates(1, 2, QueryDirection::kTail, &tail, 1, &want);
  loaded.ValueOrDie()->ScoreCandidates(1, 2, QueryDirection::kTail, &tail, 1,
                                       &got);
  EXPECT_EQ(got, want);
}

TEST(CheckpointTrainerTest, CheckpointPathOrdering) {
  // The historical trap: with the default 5-digit pad, epoch 100000's
  // name ("epoch_100000") sorts lexicographically *before* epoch 99999's
  // ("epoch_99999") because '1' < '9', so a sorted directory listing of a
  // >100000-epoch run was not epoch order.
  EXPECT_LT(CheckpointPath("d", 100000), CheckpointPath("d", 99999));
  // Passing the run's epoch count widens the pad uniformly, restoring
  // listing order == epoch order for the whole run.
  const int32_t total = 200000;
  EXPECT_LT(CheckpointPath("d", 2, total), CheckpointPath("d", 100000, total));
  EXPECT_LT(CheckpointPath("d", 99999, total),
            CheckpointPath("d", 100000, total));
  EXPECT_LT(CheckpointPath("d", 100000, total),
            CheckpointPath("d", 199999, total));
  // Runs within the historical pad keep their historical names.
  EXPECT_EQ(CheckpointPath("d", 42, 100000), CheckpointPath("d", 42));
}

TEST(CheckpointErrorsTest, MissingFileIsIoError) {
  EXPECT_EQ(LoadModel("/nonexistent/nowhere.ckpt").status().code(),
            StatusCode::kIoError);
}

// Runs LoadModel on its own thread and fails the test if it has not
// returned within two seconds. A load parked in open(2) on a FIFO is then
// released by opening the FIFO's write end, so a regression fails here
// instead of hanging the suite.
Status LoadWithWatchdog(const std::string& path) {
  auto load = std::async(std::launch::async,
                         [&path] { return LoadModel(path).status(); });
  if (load.wait_for(std::chrono::seconds(2)) != std::future_status::ready) {
    ADD_FAILURE() << "LoadModel(" << path << ") blocked for 2 s";
    const int fd = ::open(path.c_str(), O_WRONLY | O_NONBLOCK);
    if (fd >= 0) ::close(fd);
  }
  return load.get();
}

TEST(CheckpointErrorsTest, NonRegularFilesAreRejectedWithoutBlocking) {
  // A FIFO with no writer parks a blocking open(2) forever; the load must
  // open it non-blocking and reject it, like a directory, before the first
  // read.
  TempDir dir;
  const std::string fifo = dir.path() + "/fifo.ckpt";
  const std::string directory = dir.path() + "/dir.ckpt";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  ASSERT_TRUE(fs::create_directory(directory));
  for (const std::string& path : {fifo, directory}) {
    const Status status = LoadWithWatchdog(path);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find("not a regular file"), std::string::npos)
        << status.ToString();
  }
}

TEST(CheckpointTest, LoadRestoresTrainedState) {
  SynthConfig config;
  config.num_entities = 150;
  config.num_relations = 6;
  config.num_types = 6;
  config.num_train = 1500;
  config.num_valid = 50;
  config.num_test = 50;
  const Dataset dataset = GenerateDataset(config).ValueOrDie().dataset;
  ModelOptions options;
  options.dim = 16;
  auto model = CreateModel(ModelType::kComplEx, 150, 6, options)
                   .ValueOrDie();
  TrainerOptions trainer_options;
  trainer_options.epochs = 2;
  Trainer trainer(&dataset, trainer_options);
  ASSERT_TRUE(trainer.Train(model.get()).ok());

  TempDir dir;
  const std::string path = dir.path() + "/trained.ckpt";
  ASSERT_TRUE(SaveModel(model.get(), path).ok());
  const int32_t tail = 3;
  float reference = 0.0f, fresh_score = 0.0f, loaded_score = 0.0f;
  model->ScoreCandidates(1, 2, QueryDirection::kTail, &tail, 1, &reference);

  // Training moved the weights away from the seeded init, so a matching
  // score can only come from the restored tables.
  auto fresh = CreateModel(ModelType::kComplEx, 150, 6, options)
                   .ValueOrDie();
  fresh->ScoreCandidates(1, 2, QueryDirection::kTail, &tail, 1, &fresh_score);
  EXPECT_NE(fresh_score, reference);
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  loaded.ValueOrDie()->ScoreCandidates(1, 2, QueryDirection::kTail, &tail, 1,
                                       &loaded_score);
  EXPECT_FLOAT_EQ(loaded_score, reference);
}

}  // namespace
}  // namespace kgeval
