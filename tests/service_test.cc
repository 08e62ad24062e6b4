// Protocol conformance suite: a real kgeval EvalServer on a loopback
// socket, driven through the reference LineClient, one test per protocol
// promise in docs/PROTOCOL.md — including the promise that the document
// itself covers every verb in the command table.

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/eval_session.h"
#include "models/checkpoint.h"
#include "models/trainer.h"
#include "net/net_util.h"
#include "service/command.h"
#include "service/eval_server.h"
#include "service/line_client.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "tests/checkpoint_header.h"
#include "tests/gate_data.h"
#include "tests/temp_dir.h"
#include "util/string_util.h"

namespace kgeval {
namespace {

std::map<std::string, std::string> ParseKeyValues(const std::string& line) {
  std::map<std::string, std::string> out;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq != std::string::npos) {
      out[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  return out;
}

/// docs/PROTOCOL.md from the source tree, or "" when it cannot be read.
std::string ReadProtocolDoc() {
  std::ifstream in(std::string(KGEVAL_SOURCE_DIR) + "/docs/PROTOCOL.md");
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// One server + one trained checkpoint directory for the whole suite
/// (LOAD fits a recommender and training writes snapshots — once, not per
/// test). Tests that mutate checkpoint directories copy into fresh ones.
class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scratch_ = new TempDir("kgeval_service_test");
    // The EVAL targets: a short training run on the same preset the
    // server will LOAD (dataset generation is deterministic, so entity
    // ids agree).
    auto config = GetPreset(kPreset, PresetScale::kScaled);
    ASSERT_TRUE(config.ok());
    auto synth = GenerateDataset(config.ValueOrDie());
    ASSERT_TRUE(synth.ok());
    const Dataset& dataset = synth.ValueOrDie().dataset;
    ModelOptions model_options;
    model_options.dim = 16;
    model_options.seed = 7;
    auto model = CreateModel(ModelType::kComplEx, dataset.num_entities(),
                             dataset.num_relations(), model_options)
                     .ValueOrDie();
    TrainerOptions trainer_options;
    trainer_options.epochs = kEpochs;
    trainer_options.negatives_per_positive = 4;
    trainer_options.checkpoint_dir = CkptDir();
    Trainer trainer(&dataset, trainer_options);
    ASSERT_TRUE(trainer.Train(model.get()).ok());

    EvalServer::Options options;
    options.service.poll_interval_ms = 20;
    auto server = EvalServer::Start(options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).ValueOrDie().release();

    // The suite-wide LOAD every evaluation test relies on.
    LineClient client = ConnectAndGreet();
    ASSERT_TRUE(client.SendLine(StrFormat("LOAD %s valid", kPreset)).ok());
    auto reply = client.ReadReply();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply.ValueOrDie().back().rfind("OK ", 0), 0u)
        << reply.ValueOrDie().back();
  }

  static void TearDownTestSuite() {
    delete server_;
    server_ = nullptr;
    delete scratch_;
    scratch_ = nullptr;
  }

  static std::string CkptDir() { return scratch_->path() + "/ckpts"; }
  static std::string CkptPath(int epoch) {
    return CheckpointPath(CkptDir(), epoch, kEpochs);
  }

  /// Connects and consumes (and checks) the banner.
  static LineClient ConnectAndGreet() {
    auto client = LineClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    auto banner = client.ValueOrDie().ReadLine();
    EXPECT_TRUE(banner.ok()) << banner.status().ToString();
    EXPECT_EQ(banner.ValueOrDie().rfind("KGEVAL ", 0), 0u)
        << banner.ValueOrDie();
    return std::move(client).ValueOrDie();
  }

  /// Copies the trained snapshots into a fresh directory the test may
  /// mutate (add truncated files, extra snapshots) without affecting
  /// other tests.
  static std::string CloneCkptDir(const std::string& name) {
    const std::string dir = scratch_->path() + "/" + name;
    std::filesystem::create_directories(dir);
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      std::filesystem::copy_file(
          CkptPath(epoch),
          dir + "/" + std::filesystem::path(CkptPath(epoch)).filename()
                          .string());
    }
    return dir;
  }

  static std::string Request(LineClient& client, const std::string& line) {
    EXPECT_TRUE(client.SendLine(line).ok());
    auto reply = client.ReadReply();
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return reply.ok() ? reply.ValueOrDie().back() : std::string();
  }

  static constexpr const char* kPreset = "codex-s";
  static constexpr int kEpochs = 3;
  static TempDir* scratch_;
  static EvalServer* server_;
};

TempDir* ServiceTest::scratch_ = nullptr;
EvalServer* ServiceTest::server_ = nullptr;

TEST_F(ServiceTest, BannerCarriesProtocolVersionAndPingAnswers) {
  LineClient client = ConnectAndGreet();
  EXPECT_EQ(Request(client, "PING"), "OK pong");
  // Verbs are case-insensitive.
  EXPECT_EQ(Request(client, "ping"), "OK pong");
}

TEST_F(ServiceTest, ProtocolDocCoversEveryVerbAndErrorCode) {
  const std::string doc = ReadProtocolDoc();
  ASSERT_FALSE(doc.empty()) << "docs/PROTOCOL.md missing";

  // Every command-table row needs its own section and its exact syntax
  // line in the document — adding a verb without specifying it fails here.
  for (const CommandSpec& spec : CommandTable()) {
    EXPECT_NE(doc.find("### " + std::string(spec.name)),
              std::string::npos)
        << "PROTOCOL.md lacks a section for verb " << spec.name;
    EXPECT_NE(doc.find("\n" + std::string(spec.syntax) + "\n"),
              std::string::npos)
        << "PROTOCOL.md lacks the syntax line for " << spec.name << ": "
        << spec.syntax;
  }
  // Every error code the service emits must be in the code table.
  for (const char* code :
       {"line-too-long", "unknown-verb", "arity", "bad-argument",
        "no-dataset", "unknown-protocol", "eval-failed", "io", "internal",
        "busy", "deadline-exceeded", "cancelled"}) {
    EXPECT_NE(doc.find("`" + std::string(code) + "`"), std::string::npos)
        << "PROTOCOL.md lacks error code " << code;
  }
  // The documented protocol version must match the banner the server
  // actually sends.
  auto probe = LineClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(probe.ok());
  auto banner = probe.ValueOrDie().ReadLine();
  ASSERT_TRUE(banner.ok());
  const std::string version = banner.ValueOrDie().substr(7);
  EXPECT_NE(doc.find("Protocol version: **" + version + "**"),
            std::string::npos)
      << "PROTOCOL.md version does not match banner " << banner.ValueOrDie();
}

TEST_F(ServiceTest, MalformedInputGetsErrNotDisconnect) {
  LineClient client = ConnectAndGreet();
  EXPECT_EQ(Request(client, "FROBNICATE now").rfind("ERR unknown-verb", 0),
            0u);
  EXPECT_EQ(Request(client, "EVAL").rfind("ERR arity", 0), 0u);
  EXPECT_EQ(Request(client, "WATCH dir 1 2 3 4").rfind("ERR arity", 0), 0u);
  EXPECT_EQ(Request(client, "LOAD codex-s sideways")
                .rfind("ERR bad-argument", 0),
            0u);
  // After all of that the connection still works.
  EXPECT_EQ(Request(client, "PING"), "OK pong");
}

TEST_F(ServiceTest, OversizedLineGetsErrAndConnectionSurvives) {
  LineClient client = ConnectAndGreet();
  ASSERT_TRUE(
      client.SendRaw(std::string(8000, 'a') + "\nPING\n").ok());
  auto first = client.ReadReply();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.ValueOrDie().back().rfind("ERR line-too-long", 0), 0u);
  auto second = client.ReadReply();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.ValueOrDie().back(), "OK pong");
}

TEST_F(ServiceTest, BlankLinesAreIgnored) {
  LineClient client = ConnectAndGreet();
  ASSERT_TRUE(client.SendRaw("\n   \n\t\nPING\n").ok());
  // The only reply is the PING's — blank lines produce nothing.
  auto reply = client.ReadReply();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.ValueOrDie(), (std::vector<std::string>{"OK pong"}));
}

TEST_F(ServiceTest, EvalReturnsMetricsAndAdaptiveVariantConverges) {
  LineClient client = ConnectAndGreet();
  const std::string fixed = Request(client, "EVAL " + CkptPath(0));
  ASSERT_EQ(fixed.rfind("OK ", 0), 0u) << fixed;
  auto kv = ParseKeyValues(fixed);
  for (const char* key :
       {"mrr", "ci", "hits1", "hits3", "hits10", "queries", "scored",
        "eval_s"}) {
    EXPECT_TRUE(kv.count(key)) << "EVAL reply lacks " << key << ": "
                               << fixed;
  }
  // Determinism on pinned pools: the same checkpoint served twice is the
  // same bytes in every field but wall time.
  auto again = ParseKeyValues(Request(client, "EVAL " + CkptPath(0)));
  EXPECT_EQ(kv["mrr"], again["mrr"]);
  EXPECT_EQ(kv["ci"], again["ci"]);
  EXPECT_EQ(kv["scored"], again["scored"]);

  const std::string adaptive =
      Request(client, "EVAL " + CkptPath(0) + " 0.5");
  ASSERT_EQ(adaptive.rfind("OK ", 0), 0u) << adaptive;
  auto akv = ParseKeyValues(adaptive);
  EXPECT_TRUE(akv.count("converged"));
  EXPECT_TRUE(akv.count("rounds"));

  // Out of range or not finite: NaN fails both range comparisons, so it
  // must be rejected as a number, not evaluated.
  for (const char* half_width : {"2.0", "nan", "-nan"}) {
    EXPECT_EQ(Request(client, "EVAL " + CkptPath(0) + " " + half_width)
                  .rfind("ERR bad-argument", 0),
              0u)
        << half_width;
  }
  EXPECT_EQ(Request(client, "EVAL " + CkptDir() + "/missing.ckpt")
                .rfind("ERR eval-failed", 0),
            0u);
}

TEST_F(ServiceTest, EvalOfHeaderOnlyCheckpointFailsAndServerStaysUp) {
  // Any client can name any file: a 48-byte header claiming a 2^27 x 64
  // TransE entity table must come back as ERR eval-failed, not as a 32 GiB
  // allocation that takes the server down.
  const std::string path = scratch_->path() + "/header_only.ckpt";
  WriteHeaderOnlyCheckpoint(path, ModelType::kTransE, 1 << 27, 1, 64, 0, 2);
  LineClient client = ConnectAndGreet();
  const std::string reply = Request(client, "EVAL " + path);
  EXPECT_EQ(reply.rfind("ERR eval-failed", 0), 0u) << reply;
  EXPECT_EQ(Request(client, "PING"), "OK pong");
}

TEST_F(ServiceTest, EvalProtocolArgumentSelectsProtocolFamily) {
  LineClient client = ConnectAndGreet();
  auto base = ParseKeyValues(Request(client, "EVAL " + CkptPath(0)));
  // Naming the default protocol changes nothing.
  auto statics =
      ParseKeyValues(Request(client, "EVAL " + CkptPath(0) + " static"));
  EXPECT_EQ(base["mrr"], statics["mrr"]);
  EXPECT_EQ(base["scored"], statics["scored"]);
  // Wire version 1 keeps the `temporal` name, answered by the same filter
  // as `static`: identical metrics on the same pools.
  auto temporal =
      ParseKeyValues(Request(client, "EVAL " + CkptPath(0) + " temporal"));
  EXPECT_EQ(base["mrr"], temporal["mrr"]);
  EXPECT_EQ(base["scored"], temporal["scored"]);
  // half_width and protocol compose (half_width first).
  const std::string adaptive =
      Request(client, "EVAL " + CkptPath(0) + " 0.5 temporal");
  ASSERT_EQ(adaptive.rfind("OK ", 0), 0u) << adaptive;
  EXPECT_TRUE(ParseKeyValues(adaptive).count("converged"));
  // Unknown names are a dedicated error code; argument order is enforced.
  EXPECT_EQ(Request(client, "EVAL " + CkptPath(0) + " chronological")
                .rfind("ERR unknown-protocol", 0),
            0u);
  EXPECT_EQ(Request(client, "EVAL " + CkptPath(0) + " temporal 0.5")
                .rfind("ERR bad-argument", 0),
            0u);
}

TEST_F(ServiceTest, SweepStreamsEveryCheckpointThenDone) {
  LineClient client = ConnectAndGreet();
  ASSERT_TRUE(client.SendLine("SWEEP " + CkptDir()).ok());
  auto reply = client.ReadReply();
  ASSERT_TRUE(reply.ok());
  const auto& lines = reply.ValueOrDie();
  ASSERT_EQ(lines.size(), static_cast<size_t>(kEpochs) + 1);
  std::vector<bool> seen(kEpochs, false);
  for (int i = 0; i < kEpochs; ++i) {
    // Completion order is unspecified; indices must cover 0..kEpochs-1.
    std::istringstream in(lines[static_cast<size_t>(i)]);
    std::string item;
    size_t index = 999;
    in >> item >> index;
    EXPECT_EQ(item, "ITEM");
    ASSERT_LT(index, static_cast<size_t>(kEpochs));
    EXPECT_FALSE(seen[index]);
    seen[index] = true;
  }
  EXPECT_EQ(lines.back().rfind(StrFormat("DONE %d failed=0", kEpochs), 0),
            0u)
      << lines.back();
}

TEST_F(ServiceTest, SweepReportsTruncatedFileAsItemErrAndContinues) {
  LineClient client = ConnectAndGreet();
  const std::string dir = CloneCkptDir("sweep_truncated");
  {
    std::ofstream bad(dir + "/epoch_00999.ckpt", std::ios::binary);
    bad << "not a checkpoint";
  }
  ASSERT_TRUE(client.SendLine("SWEEP " + dir).ok());
  auto reply = client.ReadReply();
  ASSERT_TRUE(reply.ok());
  const auto& lines = reply.ValueOrDie();
  ASSERT_EQ(lines.size(), static_cast<size_t>(kEpochs) + 2);
  int err_items = 0, ok_items = 0;
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    if (lines[i].find(" ERR ") != std::string::npos) {
      ++err_items;
      // The bad file sorts last (epoch 999): its input-order index.
      EXPECT_EQ(lines[i].rfind(StrFormat("ITEM %d ERR", kEpochs), 0), 0u)
          << lines[i];
    } else {
      ++ok_items;
    }
  }
  EXPECT_EQ(err_items, 1);
  EXPECT_EQ(ok_items, kEpochs);
  EXPECT_EQ(
      lines.back().rfind(StrFormat("DONE %d failed=1", kEpochs + 1), 0),
      0u)
      << lines.back();
}

TEST_F(ServiceTest, WatchDeliversExistingAndMidWatchCheckpoints) {
  LineClient client = ConnectAndGreet();
  const std::string dir = scratch_->path() + "/watch_landing";
  std::filesystem::create_directories(dir);
  std::filesystem::copy_file(CkptPath(0), dir + "/epoch_00000.ckpt");
  // Ask for one more checkpoint than exists; publish it mid-watch.
  ASSERT_TRUE(client.SendLine(StrFormat("WATCH %s 2 20", dir.c_str())).ok());
  auto first = client.ReadLine();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.ValueOrDie().rfind("ITEM 0 ", 0), 0u);
  EXPECT_EQ(first.ValueOrDie().find(" ERR "), std::string::npos);
  std::filesystem::copy_file(CkptPath(1), dir + "/epoch_00001.ckpt");
  auto second = client.ReadLine();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.ValueOrDie().rfind("ITEM 1 ", 0), 0u);
  auto done = client.ReadLine();
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done.ValueOrDie(), "DONE 2 timeout=0");
}

TEST_F(ServiceTest, WatchReportsBadFileOnceAndKeepsWatching) {
  LineClient client = ConnectAndGreet();
  const std::string dir = scratch_->path() + "/watch_truncated";
  std::filesystem::create_directories(dir);
  {
    std::ofstream bad(dir + "/epoch_00000.ckpt", std::ios::binary);
    bad << "truncated";
  }
  ASSERT_TRUE(client.SendLine(StrFormat("WATCH %s 2 20", dir.c_str())).ok());
  auto first = client.ReadLine();
  ASSERT_TRUE(first.ok());
  // The truncated file: one ITEM ... ERR, claimed forever.
  EXPECT_EQ(first.ValueOrDie().rfind("ITEM 0 ERR", 0), 0u)
      << first.ValueOrDie();
  // The watch goes on: a good file published later still arrives.
  std::filesystem::copy_file(CkptPath(0), dir + "/epoch_00001.ckpt");
  auto second = client.ReadLine();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.ValueOrDie().rfind("ITEM 1 ", 0), 0u);
  EXPECT_EQ(second.ValueOrDie().find(" ERR "), std::string::npos)
      << second.ValueOrDie();
  EXPECT_EQ(client.ReadLine().ValueOrDie(), "DONE 2 timeout=0");
}

TEST_F(ServiceTest, WatchTimesOutWithPartialDelivery) {
  LineClient client = ConnectAndGreet();
  const std::string dir = scratch_->path() + "/watch_timeout";
  std::filesystem::create_directories(dir);
  std::filesystem::copy_file(CkptPath(0), dir + "/epoch_00000.ckpt");
  ASSERT_TRUE(
      client.SendLine(StrFormat("WATCH %s 5 0.5", dir.c_str())).ok());
  auto reply = client.ReadReply();
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.ValueOrDie().size(), 2u);
  EXPECT_EQ(reply.ValueOrDie()[0].rfind("ITEM 0 ", 0), 0u);
  EXPECT_EQ(reply.ValueOrDie()[1], "DONE 1 timeout=1");
}

TEST_F(ServiceTest, WatchValidatesArguments) {
  LineClient client = ConnectAndGreet();
  EXPECT_EQ(Request(client, "WATCH /tmp 0").rfind("ERR bad-argument", 0),
            0u);
  for (const char* timeout_s : {"9999", "nan", "-nan", "inf"}) {
    EXPECT_EQ(Request(client, std::string("WATCH /tmp 5 ") + timeout_s)
                  .rfind("ERR bad-argument", 0),
              0u)
        << timeout_s;
  }
}

TEST_F(ServiceTest, PipelinedBurstAnswersInRequestOrder) {
  LineClient client = ConnectAndGreet();
  // Cheap and expensive commands interleaved in one write: replies must
  // come back in exactly this order, never interleaved.
  ASSERT_TRUE(client
                  .SendRaw("PING\nSTATS\nEVAL " + CkptPath(0) +
                           "\nPING\nSWEEP " + CkptDir() + "\nPING\n")
                  .ok());
  auto r1 = client.ReadReply();
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.ValueOrDie().back(), "OK pong");
  auto r2 = client.ReadReply();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.ValueOrDie().back().rfind("OK uptime_s=", 0), 0u);
  auto r3 = client.ReadReply();
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3.ValueOrDie().back().rfind("OK mrr=", 0), 0u);
  auto r4 = client.ReadReply();
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(r4.ValueOrDie().back(), "OK pong");
  auto r5 = client.ReadReply();
  ASSERT_TRUE(r5.ok());
  EXPECT_EQ(r5.ValueOrDie().back().rfind("DONE ", 0), 0u);
  EXPECT_EQ(r5.ValueOrDie().size(), static_cast<size_t>(kEpochs) + 1);
  auto r6 = client.ReadReply();
  ASSERT_TRUE(r6.ok());
  EXPECT_EQ(r6.ValueOrDie().back(), "OK pong");
}

TEST_F(ServiceTest, MidCommandDisconnectLeavesServerHealthy) {
  {
    LineClient client = ConnectAndGreet();
    // A streaming command, then vanish before reading any of it.
    ASSERT_TRUE(client.SendLine("SWEEP " + CkptDir()).ok());
    client.Close();
  }
  {
    LineClient client = ConnectAndGreet();
    ASSERT_TRUE(client.SendLine("WATCH " + CkptDir() + " 100 30").ok());
    client.Close();
  }
  // The server is still serving (and its counters still advance).
  LineClient client = ConnectAndGreet();
  EXPECT_EQ(Request(client, "PING"), "OK pong");
  const std::string stats = Request(client, "STATS");
  ASSERT_EQ(stats.rfind("OK ", 0), 0u);
  auto kv = ParseKeyValues(stats);
  EXPECT_TRUE(kv.count("commands"));
  EXPECT_EQ(Request(client, "EVAL " + CkptPath(0)).rfind("OK mrr=", 0), 0u);
}

TEST_F(ServiceTest, QuitRepliesThenCloses) {
  LineClient client = ConnectAndGreet();
  EXPECT_EQ(Request(client, "QUIT"), "OK bye");
  // The server closes after flushing: the next read sees EOF.
  auto eof = client.ReadLine();
  EXPECT_FALSE(eof.ok());
}

TEST(ServiceColdStartTest, EvaluationVerbsRequireLoadFirst) {
  // A fresh server with nothing loaded: every evaluation verb must say
  // so, with the documented code, without dropping the connection.
  auto server = EvalServer::Start(EvalServer::Options());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client_or =
      LineClient::Connect("127.0.0.1", server.ValueOrDie()->port());
  ASSERT_TRUE(client_or.ok());
  LineClient client = std::move(client_or).ValueOrDie();
  ASSERT_TRUE(client.ReadLine().ok());  // banner
  for (const char* line : {"EVAL /nope.ckpt", "SWEEP /nope",
                           "WATCH /nope 1 1"}) {
    ASSERT_TRUE(client.SendLine(line).ok());
    auto reply = client.ReadReply();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.ValueOrDie().back().rfind("ERR no-dataset", 0), 0u)
        << reply.ValueOrDie().back();
  }
  ASSERT_TRUE(client.SendLine("PING").ok());
  EXPECT_EQ(client.ReadReply().ValueOrDie().back(), "OK pong");
}

TEST(ServiceStartupTest, StartFailsCleanlyWhenPortIsTaken) {
  auto taken = CreateTcpListener("127.0.0.1", 0);
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EvalServer::Options options;
  options.port = taken.ValueOrDie().port;
  // The failed bind must surface as a Status: the error return destroys a
  // half-initialized server (no loop thread, no executors), and its
  // Shutdown() must not post to — and wait on — a loop nobody runs.
  auto server = EvalServer::Start(options);
  EXPECT_FALSE(server.ok());
  ::close(taken.ValueOrDie().fd);
}

TEST(ServiceStartupTest, PreloadFailureFailsStart) {
  EvalServer::Options options;
  options.preload_dataset = "no-such-preset";
  auto server = EvalServer::Start(options);
  ASSERT_FALSE(server.ok());
  EXPECT_NE(server.status().ToString().find("preload"), std::string::npos)
      << server.status().ToString();
}

TEST(ServiceStartupTest, PreloadCompletesBeforeStartReturns) {
  EvalServer::Options options;
  options.preload_dataset = "codex-s";
  auto server = EvalServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  // Start() returning means the preload LOAD already finished: the first
  // client can never observe a no-dataset window.
  EXPECT_EQ(server.ValueOrDie()->service().loaded_name(), "codex-s");
}

TEST_F(ServiceTest, StatsReportsDatasetAndCounters) {
  LineClient client = ConnectAndGreet();
  auto kv = ParseKeyValues(Request(client, "STATS"));

  // The reply's keys must be exactly the documented ones, in both
  // directions: an undocumented counter and a documented counter the
  // server no longer sends both fail here.
  const std::string doc = ReadProtocolDoc();
  const size_t section = doc.find("### STATS");
  ASSERT_NE(section, std::string::npos) << "PROTOCOL.md lacks STATS";
  const size_t line_begin = doc.find("\nOK uptime_s=", section);
  ASSERT_NE(line_begin, std::string::npos)
      << "PROTOCOL.md's STATS section lacks its OK line";
  const size_t line_end = doc.find('\n', line_begin + 1);
  const std::map<std::string, std::string> documented = ParseKeyValues(
      doc.substr(line_begin + 1, line_end - line_begin - 1));
  std::vector<std::string> documented_keys, served_keys;
  for (const auto& entry : documented) documented_keys.push_back(entry.first);
  for (const auto& entry : kv) served_keys.push_back(entry.first);
  EXPECT_EQ(served_keys, documented_keys);

  EXPECT_EQ(kv["dataset"], kPreset);
  EXPECT_NE(kv["kernels"], "") << "STATS must name the dispatched kernels";
}

// --- Served parity under concurrent pipelined load ---------------------------

/// What one load client saw: each EVAL reply with the checkpoint it was
/// sent for, the ERR and shed counts, and any transport failure.
struct LoadClientRun {
  std::vector<std::string> eval_replies;
  std::vector<size_t> eval_ckpts;
  int errors = 0;
  int shed = 0;
  std::string failure;  // transport-level failure, "" when clean
};

/// One client's share of the served-parity load: `kRequests` commands with
/// up to `kWindow` in flight, one EVAL per four requests (cycling through
/// the checkpoints), STATS and PINGs in between. Replies arrive in request
/// order, so each EVAL reply is matched to the checkpoint it was sent for.
LoadClientRun RunLoadClient(uint16_t port,
                            const std::vector<std::string>& ckpts) {
  constexpr int kRequests = 16;
  constexpr size_t kWindow = 8;
  LoadClientRun run;
  auto client_or = LineClient::Connect("127.0.0.1", port);
  if (!client_or.ok()) {
    run.failure = client_or.status().ToString();
    return run;
  }
  LineClient client = std::move(client_or).ValueOrDie();
  if (!client.ReadLine().ok()) {  // banner
    run.failure = "no banner";
    return run;
  }
  std::vector<int> pending;  // request index of each reply still owed
  int sent = 0;
  for (int completed = 0; completed < kRequests; ++completed) {
    for (; sent < kRequests && pending.size() < kWindow; ++sent) {
      const size_t ckpt = static_cast<size_t>(sent / 4) % ckpts.size();
      const std::string line = sent % 4 == 0   ? "EVAL " + ckpts[ckpt]
                               : sent % 4 == 2 ? "STATS"
                                               : "PING";
      if (!client.SendLine(line).ok()) {
        run.failure = "send failed: " + line;
        return run;
      }
      pending.push_back(sent);
    }
    auto reply = client.ReadReply();
    if (!reply.ok()) {
      run.failure = reply.status().ToString();
      return run;
    }
    const int request = pending.front();
    pending.erase(pending.begin());
    const std::string& terminal = reply.ValueOrDie().back();
    if (LineClient::ErrorCode(terminal) == "busy") {
      ++run.shed;
    } else if (terminal.rfind("ERR", 0) == 0) {
      ++run.errors;
    } else if (request % 4 == 0) {
      run.eval_replies.push_back(terminal);
      run.eval_ckpts.push_back(static_cast<size_t>(request / 4) %
                               ckpts.size());
    }
  }
  client.SendLine("QUIT");
  return run;
}

TEST(ServedParityTest, ConcurrentPipelinedEvalsMatchDirectEstimate) {
  // Eight pipelined clients against a default-configured server on
  // codex-s: no ERR reply, nothing shed, and every EVAL's metric fields
  // byte-equal to a direct evaluation of the same checkpoint on a session
  // built exactly as LOAD builds it.
  const Dataset dataset = CodexS();
  TempDir dir("kgeval_served_parity");
  constexpr int32_t kEpochs = 3;
  GateTraining recipe;
  recipe.epochs = kEpochs;
  recipe.checkpoint_dir = dir.path();
  TrainGateModel(dataset, recipe);
  std::vector<std::string> ckpts;
  for (int32_t epoch = 0; epoch < kEpochs; ++epoch) {
    ckpts.push_back(CheckpointPath(dir.path(), epoch, kEpochs));
  }

  auto server_or = EvalServer::Start(EvalServer::Options());
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  std::unique_ptr<EvalServer> server = std::move(server_or).ValueOrDie();
  {
    auto control = LineClient::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(control.ok()) << control.status().ToString();
    ASSERT_TRUE(control.ValueOrDie().ReadLine().ok());  // banner
    ASSERT_TRUE(control.ValueOrDie().SendLine("LOAD codex-s valid").ok());
    auto reply = control.ValueOrDie().ReadReply();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply.ValueOrDie().back().rfind("OK ", 0), 0u)
        << reply.ValueOrDie().back();
  }

  std::vector<LoadClientRun> runs(8);
  {
    std::vector<std::thread> threads;
    for (LoadClientRun& run : runs) {
      threads.emplace_back([&run, &server, &ckpts] {
        run = RunLoadClient(server->port(), ckpts);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  server->Shutdown();

  const FilterIndex filter(dataset);
  auto session = EvalSession::Create(&dataset, &filter,
                                     EvalService::ServiceFrameworkOptions(),
                                     Split::kValid)
                     .ValueOrDie();
  std::vector<std::map<std::string, std::string>> expected;
  for (const std::string& path : ckpts) {
    auto direct = session->framework().EstimateCheckpointOnPools(
        path, filter, Split::kValid, session->pools());
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    const EstimateResult& r = direct.ValueOrDie();
    expected.push_back(
        {{"mrr", StrFormat("%.17g", r.metrics.mrr)},
         {"ci", StrFormat("%.17g", r.ci.mrr)},
         {"hits1", StrFormat("%.17g", r.metrics.hits1)},
         {"hits3", StrFormat("%.17g", r.metrics.hits3)},
         {"hits10", StrFormat("%.17g", r.metrics.hits10)},
         {"queries", std::to_string(r.metrics.num_queries)},
         {"scored", std::to_string(r.scored_candidates)}});
  }
  size_t evals = 0;
  for (const LoadClientRun& run : runs) {
    EXPECT_EQ(run.failure, "");
    EXPECT_EQ(run.errors, 0);
    EXPECT_EQ(run.shed, 0);
    for (size_t i = 0; i < run.eval_replies.size(); ++i) {
      auto served = ParseKeyValues(run.eval_replies[i]);
      for (const auto& [key, want] : expected[run.eval_ckpts[i]]) {
        EXPECT_EQ(served[key], want)
            << key << " of " << run.eval_replies[i];
      }
      ++evals;
    }
  }
  EXPECT_EQ(evals, runs.size() * 4);
}

}  // namespace
}  // namespace kgeval
