// Command-line contract of the real binaries (BACKBUSTER_BIN / ATTACKD_BIN /
// ATTACKCTL_BIN point at the built artifacts), pinned at the process
// boundary that scripts rely on:
//
//   * `backbuster attack` has one path: with or without --stream, at any
//     --window and --threads, it writes the same reconstruction and
//     coverage bytes,
//   * --checkpoint, --max-bad-frames and --shard work without --stream,
//   * malformed numbers, integers outside an option's range and unknown
//     options are usage errors (exit 2) naming the option, and write
//     nothing.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#ifndef BACKBUSTER_BIN
#error "BACKBUSTER_BIN must point at the built backbuster binary"
#endif
#ifndef ATTACKD_BIN
#error "ATTACKD_BIN must point at the built attackd binary"
#endif
#ifndef ATTACKCTL_BIN
#error "ATTACKCTL_BIN must point at the built attackctl binary"
#endif

namespace {

namespace fs = std::filesystem;

// A scratch directory private to this test process, removed at exit (ctest
// runs every case as its own process, concurrently under -j).
std::string TempPath(const std::string& name) {
  static const struct Dir {
    std::string path = (fs::temp_directory_path() /
                        ("bb_cli_" + std::to_string(::getpid())))
                           .string();
    Dir() { fs::create_directories(path); }
    ~Dir() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } dir;
  return (fs::path(dir.path) / name).string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

struct Outcome {
  int code = -1;
  std::string out;  // stdout
  std::string err;  // stderr
};

// Runs `bin args` through /bin/sh with stdout/stderr captured to files.
Outcome RunBinary(const char* bin, const std::string& args) {
  static int calls = 0;
  const std::string stem = TempPath("run" + std::to_string(calls++));
  const int rc = std::system((std::string("\"") + bin + "\" " + args + " > " +
                              stem + ".out 2> " + stem + ".err")
                                 .c_str());
  Outcome o;
  if (rc != -1 && WIFEXITED(rc)) o.code = WEXITSTATUS(rc);
  o.out = ReadAll(stem + ".out");
  o.err = ReadAll(stem + ".err");
  return o;
}

Outcome Backbuster(const std::string& args) {
  return RunBinary(BACKBUSTER_BIN, args);
}

// 36 frames at 96x72: longer than every window below, so each attack
// flushes its window several times.
const std::string& Call() {
  static const std::string path = [] {
    const std::string p = TempPath("call.bbv");
    EXPECT_EQ(Backbuster("simulate --out " + p +
                         " --duration 3 --width 96 --height 72")
                  .code,
              0);
    return p;
  }();
  return path;
}

// Reconstruction + coverage bytes of the attack that wrote `base`.
std::string Outputs(const std::string& base) {
  return ReadAll(base + ".png") + "|" + ReadAll(base + ".coverage.png");
}

// The plain `attack` every other spelling must match byte for byte.
const std::string& Reference() {
  static const std::string bytes = [] {
    const std::string base = TempPath("reference");
    EXPECT_EQ(Backbuster("attack --in " + Call() + " --threads 1 --out " +
                         base)
                  .code,
              0);
    return Outputs(base);
  }();
  return bytes;
}

TEST(BackbusterCliTest, AttackWritesTheSameBytesAtAnyWindowAndThreadCount) {
  ASSERT_GT(Reference().size(), 1u);
  int n = 0;
  for (const char* threads : {"1", "4"}) {
    for (const char* mode : {"", "--stream --window 7", "--window 1"}) {
      const std::string base = TempPath("attack" + std::to_string(n++));
      const Outcome o = Backbuster("attack --in " + Call() + " --threads " +
                                   threads + " " + mode + " --out " + base);
      ASSERT_EQ(o.code, 0) << mode << "\n" << o.err;
      EXPECT_EQ(Outputs(base), Reference())
          << "threads " << threads << " '" << mode << "'";
    }
  }
}

TEST(BackbusterCliTest, CheckpointWorksWithoutStream) {
  const std::string ck = TempPath("run.bbck");
  const std::string base = TempPath("checkpointed");
  const Outcome o = Backbuster("attack --in " + Call() +
                               " --window 4 --checkpoint " + ck + " --out " +
                               base);
  ASSERT_EQ(o.code, 0) << o.err;
  EXPECT_FALSE(fs::exists(ck)) << "checkpoint not removed on success";
  EXPECT_EQ(Outputs(base), Reference());
}

TEST(BackbusterCliTest, MaxBadFramesWorksWithoutStream) {
  const std::string faults =
      " --faults 'source@2=fail,source@11=corrupt,source@30=truncate'";
  const Outcome degraded =
      Backbuster("attack --in " + Call() + " --window 8" + faults +
                 " --max-bad-frames 10% --out " + TempPath("degraded"));
  ASSERT_EQ(degraded.code, 0) << degraded.err;
  EXPECT_NE(degraded.out.find("degraded: 3 of 36"), std::string::npos)
      << degraded.out;

  const Outcome over = Backbuster("attack --in " + Call() + " --window 8" +
                                  faults + " --max-bad-frames 1 --out " +
                                  TempPath("over"));
  EXPECT_EQ(over.code, 1);
  EXPECT_NE(over.err.find("bad-frame budget exceeded"), std::string::npos)
      << over.err;
}

TEST(BackbusterCliTest, ShardsReduceWithoutStream) {
  std::string partials;
  for (int i = 0; i < 3; ++i) {
    const std::string partial = TempPath("shard" + std::to_string(i) +
                                         ".bbpr");
    const Outcome o = Backbuster("attack --in " + Call() + " --window 5 " +
                                 "--shard " + std::to_string(i) +
                                 "/3 --partial-out " + partial);
    ASSERT_EQ(o.code, 0) << o.err;
    partials += (i ? "," : "") + partial;
  }
  const std::string base = TempPath("merged");
  const Outcome o = Backbuster("reduce --in " + partials + " --out " + base);
  ASSERT_EQ(o.code, 0) << o.err;
  EXPECT_EQ(Outputs(base), Reference());
}

TEST(BackbusterCliTest, MalformedNumbersAreUsageErrors) {
  struct Case {
    const char* bin;
    std::string args;
    const char* key;
  };
  const std::string spool = TempPath("spool");
  const std::vector<Case> cases = {
      {BACKBUSTER_BIN, "attack --in " + Call() + " --window abc", "--window"},
      {BACKBUSTER_BIN, "attack --in " + Call() + " --phi xyz", "--phi"},
      {BACKBUSTER_BIN, "attack --in " + Call() + " --threads 2x",
       "--threads"},
      {BACKBUSTER_BIN, "simulate --out " + TempPath("n.bbv") + " --fps 1O",
       "--fps"},
      {ATTACKCTL_BIN,
       "submit --spool " + spool + " --in " + Call() + " --out x --shards two",
       "--shards"},
      {ATTACKCTL_BIN, "wait --spool " + spool + " --timeout-ms soon",
       "--timeout-ms"},
      {ATTACKD_BIN, "--spool " + spool + " --drain-once --max-workers 3.5",
       "--max-workers"},
      // Values an int cannot hold are refused, never narrowed (2^32 + 64
      // once wrapped to a window of 64).
      {BACKBUSTER_BIN, "attack --in " + Call() + " --window 4294967360",
       "--window"},
      {BACKBUSTER_BIN, "attack --in " + Call() + " --window 0", "--window"},
      {BACKBUSTER_BIN, "attack --in " + Call() + " --threads 4294967296",
       "--threads"},
      {BACKBUSTER_BIN, "attack --in " + Call() + " --max-bad-frames 5x",
       "--max-bad-frames"},
      {BACKBUSTER_BIN,
       "attack --in " + Call() + " --max-bad-frames 4294967296",
       "--max-bad-frames"},
      {BACKBUSTER_BIN,
       "simulate --out " + TempPath("n.bbv") + " --width 4294967392",
       "--width"},
      {BACKBUSTER_BIN,
       "simulate --out " + TempPath("n.bbv") + " --participant 4294967296",
       "--participant"},
      {ATTACKCTL_BIN,
       "submit --spool " + spool + " --in " + Call() +
           " --out x --shards 4294967297",
       "--shards"},
      {ATTACKCTL_BIN,
       "submit --spool " + spool + " --in " + Call() +
           " --out x --deadline-ms 4294967296",
       "--deadline-ms"},
      {ATTACKD_BIN,
       "--spool " + spool + " --drain-once --max-workers 4294967299",
       "--max-workers"},
      {ATTACKD_BIN, "--spool " + spool + " --drain-once --poll-ms 0",
       "--poll-ms"},
  };
  for (const Case& c : cases) {
    const Outcome o = RunBinary(c.bin, c.args);
    EXPECT_EQ(o.code, 2) << c.args << "\n" << o.err;
    EXPECT_NE(o.err.find(c.key), std::string::npos) << c.args << "\n" << o.err;
  }
  EXPECT_FALSE(fs::exists(TempPath("n.bbv")));
  EXPECT_FALSE(fs::exists(spool)) << "a refused command touched the spool";
}

// attackctl refuses options it does not know, as backbuster and attackd
// do, instead of dropping them (`--shardz 3` once queued a 1-shard job).
TEST(BackbusterCliTest, AttackctlRejectsUnknownOptions) {
  const std::string spool = TempPath("unknown_spool");
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"submit --spool " + spool + " --in " + Call() + " --out x --shardz 3",
       "--shardz"},
      {"wait --spool " + spool + " --bogus 1", "--bogus"},
      {"status --spool " + spool + " --verbose", "--verbose"},
  };
  for (const auto& [args, key] : cases) {
    const Outcome o = RunBinary(ATTACKCTL_BIN, args);
    EXPECT_EQ(o.code, 2) << args << "\n" << o.err;
    EXPECT_NE(o.err.find("unknown option " + key), std::string::npos)
        << args << "\n" << o.err;
  }
  EXPECT_FALSE(fs::exists(spool)) << "a refused command touched the spool";
}

TEST(BackbusterCliTest, SimulateRefusesBadInput) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--speed bogus", "--speed"},      {"--lighting sideways", "--lighting"},
      {"--width 0", "--width"},          {"--height -3", "--height"},
      {"--duration -1", "--duration"},   {"--duration 0", "--duration"},
      {"--participant 9", "--participant"},
      {"--participant -1", "--participant"},
      {"--fps 0", "--fps"},
  };
  for (const auto& [option, key] : cases) {
    const std::string out = TempPath("refused.bbv");
    const Outcome o = Backbuster("simulate --out " + out + " " + option);
    EXPECT_EQ(o.code, 2) << option << "\n" << o.err;
    EXPECT_NE(o.err.find(key), std::string::npos) << option << "\n" << o.err;
    EXPECT_FALSE(fs::exists(out)) << option << " wrote a stream";
  }
}

}  // namespace
