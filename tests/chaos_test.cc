// Chaos suite: the real EvalServer on a loopback socket with fault points
// armed — vanishing checkpoints, short writes, EAGAIN storms, dropped
// connections, stalled workers — plus deadline, load-shed, and idle-reap
// behavior. Every test asserts the same two things from a different angle:
// an injected failure is contained to the operation it hit (one ITEM ERR,
// one ERR reply, one closed connection), and the server answers the next
// request as if nothing happened.

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/eval_session.h"
#include "models/checkpoint.h"
#include "models/trainer.h"
#include "net/net_util.h"
#include "service/checkpoint_watcher.h"
#include "service/eval_server.h"
#include "service/line_client.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "tests/temp_dir.h"
#include "util/fault.h"
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

/// The metric fields of an EVAL reply, minus wall time — the comparable
/// part of the line (eval_s legitimately differs between two runs of the
/// same evaluation).
std::map<std::string, std::string> MetricFields(const std::string& line) {
  auto kv = ParseKeyValues(line);
  kv.erase("eval_s");
  return kv;
}

/// One server + one trained checkpoint directory for the whole suite, as
/// in service_test. Tests that need special server options (deadlines,
/// tiny executor pools) start their own server but share the checkpoints.
class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scratch_ = new TempDir("kgeval_chaos_test");
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

    auto server = EvalServer::Start(EvalServer::Options());
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).ValueOrDie().release();

    LineClient client = ConnectAndGreet(server_);
    ASSERT_TRUE(client.SendLine(StrFormat("LOAD %s valid", kPreset)).ok());
    auto reply = client.ReadReply();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply.ValueOrDie().back().rfind("OK ", 0), 0u)
        << reply.ValueOrDie().back();
  }

  static void TearDownTestSuite() {
    DisarmAllFaults();
    delete server_;
    server_ = nullptr;
    delete scratch_;
    scratch_ = nullptr;
  }

  /// No fault outlives its test, whatever path the test exited through.
  void TearDown() override { DisarmAllFaults(); }

  static std::string CkptDir() { return scratch_->path() + "/ckpts"; }
  static std::string CkptPath(int epoch) {
    return CheckpointPath(CkptDir(), epoch, kEpochs);
  }

  static LineClient ConnectAndGreet(EvalServer* server) {
    auto client = LineClient::Connect("127.0.0.1", server->port(),
                                      /*recv_timeout_s=*/60.0);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    auto banner = client.ValueOrDie().ReadLine();
    EXPECT_TRUE(banner.ok()) << banner.status().ToString();
    EXPECT_EQ(banner.ValueOrDie().rfind("KGEVAL ", 0), 0u)
        << banner.ValueOrDie();
    return std::move(client).ValueOrDie();
  }

  static std::string Request(LineClient& client, const std::string& line) {
    EXPECT_TRUE(client.SendLine(line).ok());
    auto reply = client.ReadReply();
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return reply.ok() ? reply.ValueOrDie().back() : std::string();
  }

  static std::vector<std::string> RequestAll(LineClient& client,
                                             const std::string& line) {
    EXPECT_TRUE(client.SendLine(line).ok());
    auto reply = client.ReadReply();
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return reply.ok() ? reply.ValueOrDie() : std::vector<std::string>();
  }

  /// Spins until STATS reports exactly `n` commands in flight *besides*
  /// the probing STATS itself (which executes inline and counts too) —
  /// how tests sequence themselves against blocking verbs on other
  /// connections. Waiting for 0 matters after a terminal reply:
  /// in_flight decrements shortly *after* the reply is emitted, so "my
  /// LOAD replied" does not yet mean the executor is free.
  static void WaitForInFlight(EvalServer* server, int n) {
    LineClient stats = ConnectAndGreet(server);
    for (int i = 0; i < 200; ++i) {
      auto kv = ParseKeyValues(Request(stats, "STATS"));
      if (std::stoi(kv["in_flight"]) == n + 1) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "in_flight never reached " << n;
  }

  static constexpr const char* kPreset = "codex-s";
  static constexpr int kEpochs = 3;
  static TempDir* scratch_;
  static EvalServer* server_;
};

TempDir* ChaosTest::scratch_ = nullptr;
EvalServer* ChaosTest::server_ = nullptr;

// ---------------------------------------------------------------------------
// The fault registry itself
// ---------------------------------------------------------------------------

TEST(FaultRegistryTest, SpecArmsCountsAndExpires) {
  DisarmAllFaults();
  // nth=2: the first hit passes, the second fires, the third passes again
  // (count defaults to fail-once).
  ASSERT_TRUE(
      ArmFaultsFromSpec("io.checkpoint.read=nth=2,errno=ENOENT").ok());
  int err = 0;
  EXPECT_FALSE(FaultPoint("io.checkpoint.read", &err));
  EXPECT_TRUE(FaultPoint("io.checkpoint.read", &err));
  EXPECT_EQ(err, ENOENT);
  EXPECT_FALSE(FaultPoint("io.checkpoint.read", &err));
  EXPECT_EQ(FaultTriggerCount("io.checkpoint.read"), 1);
  // Unrelated points are not armed.
  EXPECT_FALSE(FaultPoint("net.send.eagain"));
  DisarmAllFaults();
  EXPECT_EQ(FaultTriggerCount("io.checkpoint.read"), 0);
}

TEST(FaultRegistryTest, SkipCountErrnoAndDelayDirectivesTakeEffect) {
  DisarmAllFaults();
  // skip=1,count=2: the first read passes, the next two fail with the
  // numeric errno, and the fourth passes again.
  ASSERT_TRUE(ArmFaultsFromSpec("io.checkpoint.read=skip=1,count=2,errno=5;"
                                "sched.task.delay=always,delay_ms=0")
                  .ok());
  int err = 0;
  EXPECT_FALSE(FaultPoint("io.checkpoint.read", &err));
  for (int i = 0; i < 2; ++i) {
    err = 0;
    EXPECT_TRUE(FaultPoint("io.checkpoint.read", &err)) << "hit " << i + 2;
    EXPECT_EQ(err, 5);
  }
  EXPECT_FALSE(FaultPoint("io.checkpoint.read", &err));
  EXPECT_EQ(FaultTriggerCount("io.checkpoint.read"), 2);
  // A delay point sleeps and lets the site proceed: it never fails, but
  // every hit counts as fired.
  EXPECT_FALSE(FaultPoint("sched.task.delay"));
  EXPECT_FALSE(FaultPoint("sched.task.delay"));
  EXPECT_EQ(FaultTriggerCount("sched.task.delay"), 2);
  DisarmAllFaults();
}

TEST(FaultRegistryTest, BadSpecsArmNothing) {
  DisarmAllFaults();
  const char* const kBadSpecs[] = {
      "no.such.point=once",
      "io.checkpoint.read",
      "io.checkpoint.read=bogus-directive",
      "io.checkpoint.read=count=notanint",
      "io.checkpoint.read=nth=0",
      "io.checkpoint.read=skip=-1",
      "io.checkpoint.read=count=0",
      "io.checkpoint.read=errno=EFOO",
      "io.checkpoint.read=errno=0",
      "io.checkpoint.read=delay_ms=-1",
      // Out of the field's range: rejected, not wrapped or saturated.
      "io.checkpoint.read=delay_ms=4294967296",
      "io.checkpoint.read=errno=4294967301",
      "io.checkpoint.read=delay_ms=99999999999999999999",
      "io.checkpoint.read=errno=99999999999999999999",
      "io.checkpoint.read=nth=99999999999999999999",
  };
  for (const char* spec : kBadSpecs) {
    EXPECT_EQ(ArmFaultsFromSpec(spec).code(), StatusCode::kInvalidArgument)
        << spec;
    EXPECT_FALSE(FaultPoint("io.checkpoint.read")) << spec;
  }
  // Parse-all-before-arm: a good entry followed by a bad one must not
  // leave the good one armed.
  EXPECT_FALSE(
      ArmFaultsFromSpec("net.send.eagain=always;no.such.point=once").ok());
  EXPECT_FALSE(FaultPoint("net.send.eagain"));
  EXPECT_FALSE(FaultPoint("io.checkpoint.read"));
}

TEST(FaultRegistryTest, EnvSpecArmsOnlyWhenValid) {
  DisarmAllFaults();
  const char* previous = std::getenv("KGEVAL_FAULTS");
  const std::optional<std::string> saved =
      previous ? std::optional<std::string>(previous) : std::nullopt;

  ASSERT_EQ(setenv("KGEVAL_FAULTS", "io.checkpoint.read=once", 1), 0);
  EXPECT_TRUE(ArmFaultsFromEnv().ok());
  EXPECT_TRUE(FaultPoint("io.checkpoint.read"));
  DisarmAllFaults();

  ASSERT_EQ(setenv("KGEVAL_FAULTS", "", 1), 0);
  EXPECT_TRUE(ArmFaultsFromEnv().ok());
  EXPECT_FALSE(FaultPoint("io.checkpoint.read"));

  ASSERT_EQ(setenv("KGEVAL_FAULTS", "io.checkpoint.read=bogus-directive", 1),
            0);
  EXPECT_EQ(ArmFaultsFromEnv().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(FaultPoint("io.checkpoint.read"));

  if (saved) {
    setenv("KGEVAL_FAULTS", saved->c_str(), 1);
  } else {
    unsetenv("KGEVAL_FAULTS");
  }
  DisarmAllFaults();
}

// Fault-point <-> ARCHITECTURE.md consistency is enforced by kgeval_lint's
// `fault-doc` rule (the repo_lint ctest), which parses the kFaultPoints
// array in util/fault.cc directly.

// ---------------------------------------------------------------------------
// Checkpoint I/O faults: failures stay per-item
// ---------------------------------------------------------------------------

TEST(FaultRegistryTest, WriteFaultSurfacesIoErrorWithoutPublishing) {
  DisarmAllFaults();
  TempDir scratch("kgeval_chaos_write");
  ModelOptions options;
  options.dim = 8;
  options.seed = 3;
  auto model = CreateModel(ModelType::kComplEx, 50, 4, options).ValueOrDie();
  const std::string path = scratch.path() + "/snap.ckpt";

  FaultSpec spec;
  spec.inject_errno = ENOSPC;
  ArmFault("io.checkpoint.write", spec);
  EXPECT_FALSE(SaveModel(model.get(), path).ok());
  EXPECT_EQ(FaultTriggerCount("io.checkpoint.write"), 1);
  DisarmAllFaults();

  // With the disk "fixed", the same save succeeds and round-trips.
  ASSERT_TRUE(SaveModel(model.get(), path).ok());
  EXPECT_TRUE(LoadModel(path).ok());
}

TEST_F(ChaosTest, SweepContainsReadFaultToOneItemAndParityHolds) {
  LineClient client = ConnectAndGreet(server_);
  const std::string before =
      Request(client, StrFormat("EVAL %s", CkptPath(0).c_str()));
  ASSERT_EQ(before.rfind("OK ", 0), 0u) << before;

  // The second parameter read anywhere in the sweep fails with EIO:
  // exactly one of the three concurrent loads dies, the other two and the
  // sweep itself must not notice.
  FaultSpec spec;
  spec.skip = 1;
  ArmFault("io.checkpoint.read", spec);
  const std::vector<std::string> lines =
      RequestAll(client, StrFormat("SWEEP %s", CkptDir().c_str()));
  EXPECT_EQ(FaultTriggerCount("io.checkpoint.read"), 1);
  DisarmAllFaults();

  int ok_items = 0, err_items = 0;
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    ASSERT_EQ(lines[i].rfind("ITEM ", 0), 0u) << lines[i];
    if (lines[i].find(" ERR ") != std::string::npos) {
      ++err_items;
    } else {
      ++ok_items;
    }
  }
  EXPECT_EQ(err_items, 1);
  EXPECT_EQ(ok_items, kEpochs - 1);
  ASSERT_EQ(lines.back().rfind(StrFormat("DONE %d ", kEpochs), 0), 0u)
      << lines.back();
  EXPECT_EQ(ParseKeyValues(lines.back())["failed"], "1");

  // With the fault gone, the same EVAL reproduces the pre-fault metrics
  // byte for byte: injection never corrupts, it only fails.
  const std::string after =
      Request(client, StrFormat("EVAL %s", CkptPath(0).c_str()));
  EXPECT_EQ(MetricFields(after), MetricFields(before));
}

TEST_F(ChaosTest, SweepReportsVanishedCheckpointWithoutAborting) {
  // open() returning ENOENT mid-sweep is the wire-visible shape of the
  // listing TOCTOU: a file listed a moment ago is gone by open time.
  FaultSpec spec;
  spec.inject_errno = ENOENT;
  ArmFault("io.checkpoint.open", spec);
  LineClient client = ConnectAndGreet(server_);
  const std::vector<std::string> lines =
      RequestAll(client, StrFormat("SWEEP %s", CkptDir().c_str()));
  DisarmAllFaults();

  int err_items = 0;
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    if (lines[i].find(" ERR ") != std::string::npos) ++err_items;
  }
  EXPECT_EQ(err_items, 1);
  EXPECT_EQ(ParseKeyValues(lines.back())["failed"], "1");
  EXPECT_EQ(Request(client, "PING"), "OK pong");
}

/// The same TOCTOU at the session layer, with a genuine deletion instead
/// of an injected errno: list the directory, delete one file, sweep the
/// stale list. The vanished path carries its Status in its slot; the
/// others evaluate normally.
TEST(SessionChaosTest, SweepToleratesCheckpointDeletedAfterListing) {
  TempDir scratch("kgeval_session_chaos");
  SynthConfig config;
  config.num_entities = 600;
  config.num_relations = 16;
  config.num_types = 12;
  config.num_train = 8000;
  config.num_valid = 600;
  config.num_test = 600;
  config.seed = 42;
  Dataset dataset = GenerateDataset(config).ValueOrDie().dataset;
  FilterIndex filter(dataset);

  const std::string dir = scratch.path() + "/ckpts";
  std::filesystem::create_directories(dir);
  for (int epoch = 0; epoch < 3; ++epoch) {
    ModelOptions options;
    options.dim = 16;
    options.seed = 100 + static_cast<uint64_t>(epoch);
    auto model = CreateModel(ModelType::kComplEx, dataset.num_entities(),
                             dataset.num_relations(), options)
                     .ValueOrDie();
    ASSERT_TRUE(
        SaveModel(model.get(), CheckpointPath(dir, epoch, 3)).ok());
  }

  auto paths = ListCheckpointFiles(dir);
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths.ValueOrDie().size(), 3u);
  // The race window: a retention policy deletes epoch 1 between the
  // listing and the sweep's open.
  ASSERT_TRUE(std::filesystem::remove(paths.ValueOrDie()[1]));

  FrameworkOptions fw;
  fw.strategy = SamplingStrategy::kProbabilistic;
  fw.recommender = RecommenderType::kLwd;
  fw.sample_fraction = 0.1;
  auto session =
      EvalSession::Create(&dataset, &filter, fw, Split::kTest).ValueOrDie();
  CheckpointSweepStats stats;
  auto outcomes = session->EstimateCheckpoints(
      paths.ValueOrDie(), EstimateRequest(), nullptr, &stats);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
  EXPECT_FALSE(outcomes[1].status.ok());
  EXPECT_TRUE(outcomes[2].status.ok()) << outcomes[2].status.ToString();
  EXPECT_EQ(stats.failed, 1u);
}

// ---------------------------------------------------------------------------
// Network faults: framing survives pathological sends and dropped peers
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, OneByteSendsDeliverByteIdenticalReplies) {
  LineClient baseline = ConnectAndGreet(server_);
  const std::string before =
      Request(baseline, StrFormat("EVAL %s", CkptPath(1).c_str()));
  ASSERT_EQ(before.rfind("OK ", 0), 0u) << before;

  // Every send() on every connection now moves one byte: framing and
  // backpressure must reassemble identical lines, just slower.
  FaultSpec spec;
  spec.count = -1;
  ArmFault("net.send.short_write", spec);
  LineClient client = ConnectAndGreet(server_);
  const std::string during =
      Request(client, StrFormat("EVAL %s", CkptPath(1).c_str()));
  EXPECT_EQ(MetricFields(during), MetricFields(before));
  const std::vector<std::string> sweep =
      RequestAll(client, StrFormat("SWEEP %s", CkptDir().c_str()));
  EXPECT_EQ(ParseKeyValues(sweep.back())["failed"], "0");
  EXPECT_GE(FaultTriggerCount("net.send.short_write"), 1);
  DisarmAllFaults();
}

TEST_F(ChaosTest, RepliesSurviveTransientSendEagain) {
  // The first few flushes hit a "full" socket; the write-interest path
  // must finish the job once the fault expires.
  FaultSpec spec;
  spec.count = 3;
  ArmFault("net.send.eagain", spec);
  LineClient client = ConnectAndGreet(server_);
  const std::string reply =
      Request(client, StrFormat("EVAL %s", CkptPath(2).c_str()));
  EXPECT_EQ(reply.rfind("OK ", 0), 0u) << reply;
  EXPECT_GE(FaultTriggerCount("net.send.eagain"), 1);
  DisarmAllFaults();
}

TEST_F(ChaosTest, RecvCloseFaultDropsOnlyThatConnection) {
  LineClient client = ConnectAndGreet(server_);
  FaultSpec spec;
  ArmFault("net.recv.close", spec);
  // The server hits the injected hangup when this request arrives and
  // closes the connection; the reply never comes.
  ASSERT_TRUE(client.SendLine("PING").ok());
  auto reply = client.ReadReply();
  EXPECT_FALSE(reply.ok());
  DisarmAllFaults();
  // The server itself is unharmed: the next connection works end to end.
  LineClient fresh = ConnectAndGreet(server_);
  EXPECT_EQ(Request(fresh, "PING"), "OK pong");
}

// ---------------------------------------------------------------------------
// Deadlines, load shedding, idle reaping
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, DeadlineExpiresMidCommandAndConnectionStaysUsable) {
  EvalServer::Options options;
  options.deadline_s = 0.05;
  auto started = EvalServer::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<EvalServer> server = std::move(started).ValueOrDie();

  LineClient client = ConnectAndGreet(server.get());
  // LOAD is exempt from the deadline (it legitimately takes longer than
  // any sane per-command budget).
  const std::string load =
      Request(client, StrFormat("LOAD %s valid", kPreset));
  ASSERT_EQ(load.rfind("OK ", 0), 0u) << load;

  // The first task waves now stall 100 ms each, so no evaluation can
  // finish inside the 50 ms deadline; the count cap keeps the post-cancel
  // wind-down short whatever the chunk count.
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kDelay;
  spec.delay_ms = 100;
  spec.count = 64;
  ArmFault("sched.task.delay", spec);

  const std::string eval = Request(client, StrFormat("EVAL %s", CkptPath(0).c_str()));
  EXPECT_EQ(LineClient::ErrorCode(eval), "deadline-exceeded") << eval;

  // The adaptive pass polls the same token, between rounds and blocks.
  ArmFault("sched.task.delay", spec);
  const std::string adaptive =
      Request(client, StrFormat("EVAL %s 0.05", CkptPath(0).c_str()));
  EXPECT_EQ(LineClient::ErrorCode(adaptive), "deadline-exceeded") << adaptive;

  ArmFault("sched.task.delay", spec);  // Re-arm: fresh hit budget.
  const std::vector<std::string> sweep =
      RequestAll(client, StrFormat("SWEEP %s", CkptDir().c_str()));
  EXPECT_EQ(LineClient::ErrorCode(sweep.back()), "deadline-exceeded")
      << sweep.back();
  // Whatever streamed before the deadline must still be well-formed ITEMs.
  for (size_t i = 0; i + 1 < sweep.size(); ++i) {
    EXPECT_EQ(sweep[i].rfind("ITEM ", 0), 0u) << sweep[i];
  }
  DisarmAllFaults();

  // A timed-out command costs neither the connection nor the server.
  EXPECT_EQ(Request(client, "PING"), "OK pong");
  auto kv = ParseKeyValues(Request(client, "STATS"));
  EXPECT_GE(std::stoi(kv["deadlines"]), 3) << Request(client, "STATS");
}

TEST_F(ChaosTest, OverloadedServerShedsWithErrBusyAndStaysResponsive) {
  EvalServer::Options options;
  options.executor_threads = 1;
  options.max_queued_commands = 1;
  auto started = EvalServer::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<EvalServer> server = std::move(started).ValueOrDie();

  LineClient loader = ConnectAndGreet(server.get());
  const std::string load = Request(loader, StrFormat("LOAD %s", kPreset));
  ASSERT_EQ(load.rfind("OK ", 0), 0u) << load;
  WaitForInFlight(server.get(), 0);  // The LOAD has fully retired.

  // Occupy the single executor with a long WATCH on an empty directory…
  const std::string empty_dir = scratch_->path() + "/watch_empty";
  std::filesystem::create_directories(empty_dir);
  LineClient busy = ConnectAndGreet(server.get());
  ASSERT_TRUE(
      busy.SendLine(StrFormat("WATCH %s 1 30", empty_dir.c_str())).ok());
  WaitForInFlight(server.get(), 1);

  // …queue one more command behind it (fills the backlog of 1)…
  LineClient queued = ConnectAndGreet(server.get());
  ASSERT_TRUE(queued.SendLine(StrFormat("EVAL %s", CkptPath(0).c_str())).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // …so the third blocking command is shed, in order, without executing.
  LineClient shed = ConnectAndGreet(server.get());
  const std::string reply =
      Request(shed, StrFormat("EVAL %s", CkptPath(0).c_str()));
  EXPECT_EQ(LineClient::ErrorCode(reply), "busy") << reply;
  // Shedding is backpressure, not failure: the connection stays usable
  // and inline verbs never shed.
  EXPECT_EQ(Request(shed, "PING"), "OK pong");
  auto kv = ParseKeyValues(Request(shed, "STATS"));
  EXPECT_GE(std::stoi(kv["shed"]), 1);
  EXPECT_EQ(kv["errors"], "0");

  // Shutdown with the WATCH still in flight (29 s of timeout left) and an
  // EVAL still queued must drain promptly: cancellation, not the timeout,
  // bounds it.
  const auto t0 = std::chrono::steady_clock::now();
  server.reset();
  const double drain_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(drain_s, 15.0);
}

TEST(IdleReapTest, IdleConnectionsAreClosedAndCounted) {
  EvalServer::Options options;
  options.idle_timeout_s = 0.2;
  auto started = EvalServer::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<EvalServer> server = std::move(started).ValueOrDie();

  auto client = LineClient::Connect("127.0.0.1", server->port(),
                                    /*recv_timeout_s=*/10.0);
  ASSERT_TRUE(client.ok());
  auto banner = client.ValueOrDie().ReadLine();
  ASSERT_TRUE(banner.ok());
  // Stay quiet past the idle timeout; the reaper closes us.
  auto line = client.ValueOrDie().ReadLine();
  EXPECT_FALSE(line.ok());
  if (!line.ok()) {
    EXPECT_NE(line.status().ToString().find("closed"), std::string::npos)
        << line.status().ToString();
  }

  // A fresh, active connection sees the reap in STATS and is itself fine.
  auto probe = LineClient::Connect("127.0.0.1", server->port(),
                                   /*recv_timeout_s=*/10.0);
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE(probe.ValueOrDie().ReadLine().ok());
  ASSERT_TRUE(probe.ValueOrDie().SendLine("STATS").ok());
  auto reply = probe.ValueOrDie().ReadLine();
  ASSERT_TRUE(reply.ok());
  auto kv = ParseKeyValues(reply.ValueOrDie());
  EXPECT_GE(std::stoi(kv["idle_closed"]), 1) << reply.ValueOrDie();
}

// ---------------------------------------------------------------------------
// LineClient failure paths (raw peer, no server)
// ---------------------------------------------------------------------------

class RawPeer {
 public:
  RawPeer() {
    auto listener = CreateTcpListener("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok());
    listen_fd_ = listener.ValueOrDie().fd;
    port_ = listener.ValueOrDie().port;
  }
  ~RawPeer() {
    if (conn_fd_ >= 0) ::close(conn_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }

  /// The listener is non-blocking; poll until the client's connect lands.
  bool Accept() {
    for (int i = 0; i < 500; ++i) {
      conn_fd_ = ::accept(listen_fd_, nullptr, nullptr);
      if (conn_fd_ >= 0) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  void Send(const std::string& bytes) {
    ASSERT_EQ(::send(conn_fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  void CloseConnection() {
    ::close(conn_fd_);
    conn_fd_ = -1;
  }

 private:
  int listen_fd_ = -1;
  int conn_fd_ = -1;
  uint16_t port_ = 0;
};

TEST(LineClientFailureTest, RecvTimeoutMidLineSurfacesIoError) {
  RawPeer peer;
  auto client = LineClient::Connect("127.0.0.1", peer.port(),
                                    /*recv_timeout_s=*/0.3);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(peer.Accept());
  // Half a line, then silence: ReadLine must give up at the timeout with
  // a diagnosable error instead of hanging the caller.
  peer.Send("OK par");
  auto line = client.ValueOrDie().ReadLine();
  ASSERT_FALSE(line.ok());
  EXPECT_NE(line.status().ToString().find("timed out"), std::string::npos)
      << line.status().ToString();
}

TEST(LineClientFailureTest, ServerCloseMidReplySurfacesClosedError) {
  RawPeer peer;
  auto client = LineClient::Connect("127.0.0.1", peer.port(),
                                    /*recv_timeout_s=*/5.0);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(peer.Accept());
  // A stream line but never the terminal: ReadReply must report the close,
  // not return a truncated reply as success.
  peer.Send("ITEM 0 0.5 0.1\n");
  peer.CloseConnection();
  auto reply = client.ValueOrDie().ReadReply();
  ASSERT_FALSE(reply.ok());
  EXPECT_NE(reply.status().ToString().find("connection closed"),
            std::string::npos)
      << reply.status().ToString();
}

TEST(LineClientFailureTest, ErrorCodeExtractsTheCodeToken) {
  EXPECT_EQ(LineClient::ErrorCode("ERR busy server overloaded, retry later"),
            "busy");
  EXPECT_EQ(LineClient::ErrorCode("ERR busy"), "busy");
  EXPECT_EQ(LineClient::ErrorCode("ERR deadline-exceeded sweep abandoned"),
            "deadline-exceeded");
  EXPECT_EQ(LineClient::ErrorCode("OK pong"), "");
  EXPECT_EQ(LineClient::ErrorCode("ITEM 0 ERR bad"), "");
  EXPECT_EQ(LineClient::ErrorCode(""), "");
}

}  // namespace
}  // namespace kgeval
