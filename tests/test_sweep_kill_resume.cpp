// Crash/resume tests against the real sweep-runner binary: a child
// process killed mid-sweep (deterministically via --inject-fault=...:exit,
// and for real via SIGKILL) must leave a resumable journal, and the
// resumed run's summary must be byte-identical to an uninterrupted one.
// Also the runner's CLI flag guards. These tests need the runner binary
// path (DNNLIFE_SWEEP_RUNNER_PATH, injected by CMake when examples are
// built) and POSIX process control; they skip elsewhere.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#define DNNLIFE_HAVE_POSIX_SPAWN_TESTS 1
#endif

namespace {

namespace fs = std::filesystem;

#if defined(DNNLIFE_HAVE_POSIX_SPAWN_TESTS) && \
    defined(DNNLIFE_SWEEP_RUNNER_PATH)
#define DNNLIFE_KILL_RESUME_ENABLED 1
#endif

#ifdef DNNLIFE_KILL_RESUME_ENABLED

/// A 16-point grid; shard 2/3 selects global indices 1, 4, 7, 10, 13.
constexpr const char* kSpec = R"({
  "name": "kill",
  "base": {
    "hardware": "tpu-like-npu",
    "npu": {"array_dim": 16, "fifo_tiles": 2},
    "phases": [{"network": "custom_mnist", "inferences": 1}]
  },
  "axes": [
    {"parameter": "temperature_c", "values": [25, 55, 85, 105]},
    {"parameter": "vdd", "values": [0.95, 1.0]},
    {"parameter": "policy", "values": ["no-mitigation", "inversion"]}
  ]
})";

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::size_t count_lines(const fs::path& path) {
  const std::string text = slurp(path);
  std::size_t lines = 0;
  for (const char c : text)
    if (c == '\n') ++lines;
  return lines;
}

/// Launch the runner with `args`, stdout → /dev/null, stderr → `stderr_to`
/// (or /dev/null when empty). Returns the child pid.
pid_t spawn_runner(const std::vector<std::string>& args,
                   const fs::path& stderr_to = {}) {
  std::vector<std::string> argv_storage;
  argv_storage.push_back(DNNLIFE_SWEEP_RUNNER_PATH);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: silence stdout, capture stderr if asked, then exec.
  const int devnull = ::open("/dev/null", O_WRONLY);
  if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
  if (!stderr_to.empty()) {
    const int err = ::open(stderr_to.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    if (err >= 0) ::dup2(err, STDERR_FILENO);
  } else if (devnull >= 0) {
    ::dup2(devnull, STDERR_FILENO);
  }
  ::execv(argv[0], argv.data());
  ::_exit(127);  // exec failed
}

/// Run to completion; returns the exit code (or -signal when signalled).
int run_runner(const std::vector<std::string>& args,
               const fs::path& stderr_to = {}) {
  const pid_t pid = spawn_runner(args, stderr_to);
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -999;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return -WTERMSIG(status);
  return -998;
}

class SweepKillResume : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest -j runs each TEST as its own process.
    dir_ = fs::path(::testing::TempDir()) /
           ("dnnlife_kill_resume_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    spec_ = dir_ / "spec.json";
    std::ofstream(spec_) << kSpec;
  }
  void TearDown() override {
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }

  /// The shared flags of every shard-2/3 run in these tests.
  std::vector<std::string> shard_args() const {
    return {"--spec=" + spec_.string(), "--shard=2/3", "--jobs=1",
            "--quiet", "--omit-timing"};
  }

  fs::path dir_;
  fs::path spec_;
};

TEST_F(SweepKillResume, InjectedCrashLeavesAResumableJournal) {
  const fs::path journal = dir_ / "shard2.journal";
  const fs::path reference = dir_ / "reference.json";
  const fs::path resumed = dir_ / "resumed.json";

  // The reference: the shard run uninterrupted (no journal).
  std::vector<std::string> args = shard_args();
  args.push_back("--json=" + reference.string());
  ASSERT_EQ(run_runner(args), 0);

  // Crash at the shard's third point to run (global index 13). The policy
  // axis splits the shard into two fingerprint groups, and single flight
  // runs a group's points next to each other: with --jobs=1 the order is
  // 1, 7, 13 (inversion), then 4, 10 — so exactly indices 1 and 7 are
  // journaled.
  args = shard_args();
  args.push_back("--journal=" + journal.string());
  args.push_back("--inject-fault=13:exit");
  ASSERT_EQ(run_runner(args), 40);
  ASSERT_TRUE(fs::exists(journal));
  EXPECT_EQ(count_lines(journal), 3u);  // header + indices 1, 7

  // Resume: finishes the remaining points and rebuilds the summary.
  args = shard_args();
  args.push_back("--journal=" + journal.string());
  args.push_back("--resume");
  args.push_back("--json=" + resumed.string());
  ASSERT_EQ(run_runner(args), 0);

  EXPECT_EQ(slurp(resumed), slurp(reference))
      << "resumed summary must be byte-identical to the uninterrupted run";
  EXPECT_EQ(count_lines(journal), 6u);  // header + all 5 shard points
}

TEST_F(SweepKillResume, ResumeDoesNotReExecuteJournaledPoints) {
  const fs::path journal = dir_ / "proof.journal";

  std::vector<std::string> args = shard_args();
  args.push_back("--journal=" + journal.string());
  args.push_back("--inject-fault=7:exit");
  ASSERT_EQ(run_runner(args), 40);

  // Index 1 is journaled. A resume that would throw on executing index 1
  // must still succeed — proof the journaled point never runs again.
  args = shard_args();
  args.push_back("--journal=" + journal.string());
  args.push_back("--resume");
  args.push_back("--inject-fault=1:throw");
  EXPECT_EQ(run_runner(args), 0);
}

TEST_F(SweepKillResume, SigkillMidSweepIsResumable) {
  const fs::path journal = dir_ / "sigkill.journal";
  const fs::path reference = dir_ / "reference.json";
  const fs::path resumed = dir_ / "resumed.json";

  std::vector<std::string> args = shard_args();
  args.push_back("--json=" + reference.string());
  ASSERT_EQ(run_runner(args), 0);

  // Slow one point down so the kill lands mid-sweep, then SIGKILL the
  // child as soon as the journal holds its first record.
  args = shard_args();
  args.push_back("--journal=" + journal.string());
  args.push_back("--inject-fault=4:delay:30");
  const pid_t pid = spawn_runner(args);
  bool killed = false;
  for (int spins = 0; spins < 20000; ++spins) {  // <= ~20 s
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, WNOHANG), 0)
        << "runner exited before the kill";
    if (fs::exists(journal) && count_lines(journal) >= 2) {
      ::kill(pid, SIGKILL);
      killed = true;
      break;
    }
    ::usleep(1000);
  }
  ASSERT_TRUE(killed) << "journal never gained a record";
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The journal's valid prefix (possibly with a torn tail) must resume to
  // the byte-identical summary.
  args = shard_args();
  args.push_back("--journal=" + journal.string());
  args.push_back("--resume");
  args.push_back("--json=" + resumed.string());
  ASSERT_EQ(run_runner(args), 0);
  EXPECT_EQ(slurp(resumed), slurp(reference));
}

TEST_F(SweepKillResume, FlagGuardsRejectContradictions) {
  const fs::path err = dir_ / "stderr.txt";

  // --resume without --journal.
  std::vector<std::string> args = shard_args();
  args.push_back("--resume");
  EXPECT_EQ(run_runner(args, err), 1);
  EXPECT_NE(slurp(err).find("--journal"), std::string::npos);

  // --materialize with --journal / --resume / --inject-fault.
  args = {"--spec=" + spec_.string(),
          "--materialize=" + (dir_ / "out").string(),
          "--journal=" + (dir_ / "j.journal").string()};
  EXPECT_EQ(run_runner(args, err), 1);
  EXPECT_NE(slurp(err).find("--materialize"), std::string::npos);

  // A fresh --journal refuses to overwrite an existing non-empty file.
  const fs::path existing = dir_ / "existing.journal";
  std::ofstream(existing) << "precious bytes\n";
  args = shard_args();
  args.push_back("--journal=" + existing.string());
  EXPECT_EQ(run_runner(args, err), 1);
  EXPECT_NE(slurp(err).find("--resume"), std::string::npos);
  EXPECT_EQ(slurp(existing), "precious bytes\n");

  // Resuming a journal of a different sweep (other shard) is refused.
  const fs::path journal = dir_ / "other-shard.journal";
  args = shard_args();
  args.push_back("--journal=" + journal.string());
  ASSERT_EQ(run_runner(args), 0);
  args = {"--spec=" + spec_.string(), "--shard=1/3", "--jobs=1",
          "--quiet",  "--omit-timing",
          "--journal=" + journal.string(), "--resume"};
  EXPECT_EQ(run_runner(args, err), 1);
  EXPECT_NE(slurp(err).find("shard"), std::string::npos);
}

#else  // !DNNLIFE_KILL_RESUME_ENABLED

TEST(SweepKillResume, RequiresRunnerBinaryAndPosix) {
  GTEST_SKIP() << "sweep-runner binary path or POSIX process control "
                  "unavailable in this build";
}

#endif

}  // namespace
