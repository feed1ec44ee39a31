// dgcli's command-line contract: a subcommand accepts only the flags it
// declares, and a number must parse whole and in range. Anything else gets
// the usage text and exit status 2 before any work starts, so a typo in a
// scripted or CI command line fails instead of running on defaults. Runs
// the built binary.
#include <stdlib.h>
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

struct Outcome {
  int status = -1;     // exit status, -1 if dgcli did not exit normally
  std::string output;  // stdout and stderr
};

/// Runs `dgcli <args>` in `dir`; `args` is shell text.
Outcome dgcli(const std::string& args, const fs::path& dir) {
  const std::string cmd = "cd '" + dir.string() + "' && '" DG_DGCLI_PATH
                          "' " + args + " 2>&1";
  Outcome r;
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) r.output.append(buf, n);
  const int status = pclose(p);
  if (status != -1 && WIFEXITED(status)) r.status = WEXITSTATUS(status);
  return r;
}

/// A fresh directory for files a command might write; removed on exit.
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "dgcli_test.XXXXXX").string();
    if (mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path_.empty()) fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::string example(const char* file) {
  return "'" DG_SOURCE_DIR "/examples/configs/" + std::string(file) + "'";
}

bool contains(const std::string& s, const std::string& part) {
  return s.find(part) != std::string::npos;
}

TEST(DgcliArgs, MisspelledFlagsAreRefused) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  // Before, this linted the default config and printed "lint: PASS".
  const Outcome r = dgcli("lint --schema " + example("gcut.schema") +
                              " --confg " + example("gcut.cfg") + " --tapee",
                          dir.path());
  EXPECT_EQ(r.status, 2) << r.output;
  EXPECT_TRUE(contains(r.output, "unknown option --confg")) << r.output;
  EXPECT_TRUE(contains(r.output, "usage: dgcli")) << r.output;
  EXPECT_FALSE(contains(r.output, "PASS")) << r.output;

  const Outcome unknown = dgcli("frobnicate --n 3", dir.path());
  EXPECT_EQ(unknown.status, 2) << unknown.output;
  EXPECT_TRUE(contains(unknown.output, "usage: dgcli")) << unknown.output;
}

TEST(DgcliArgs, NumbersMustParseWholeAndInRange) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  for (const char* n : {"12abc", "1.5", "", "99999999999", "0x10", "-5"}) {
    const std::string args = std::string("make-synth --dataset gcut --n '") +
                             n + "' --schema g.schema --out g.csv";
    const Outcome r = dgcli(args, dir.path());
    EXPECT_EQ(r.status, 2) << "--n '" << n << "': " << r.output;
    EXPECT_TRUE(contains(r.output, "usage: dgcli")) << r.output;
    EXPECT_FALSE(fs::exists(dir.path() / "g.csv")) << "--n '" << n << "'";
    // generate reads --n before it opens the (missing) package, so a
    // regression exits 1 instead.
    const Outcome gen = dgcli(std::string("generate --model missing.dgpkg --n '") +
                                  n + "' --out s.csv",
                              dir.path());
    EXPECT_EQ(gen.status, 2) << "generate --n '" << n << "': " << gen.output;
    EXPECT_TRUE(contains(gen.output, "usage: dgcli")) << gen.output;
  }
  // Refused before the package is opened (it does not exist either way, so
  // a regression exits 1 instead of serving).
  const Outcome poll =
      dgcli("serve --model missing.dgpkg --poll 0.5x --port 0", dir.path());
  EXPECT_EQ(poll.status, 2) << poll.output;
  EXPECT_TRUE(contains(poll.output, "--poll")) << poll.output;
  const Outcome port = dgcli("request --port 7788x --stats", dir.path());
  EXPECT_EQ(port.status, 2) << port.output;
}

TEST(DgcliArgs, DeclaredFlagsStillRun) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const Outcome synth =
      dgcli("make-synth --dataset gcut --n 12 --seed 3 --schema g.schema "
            "--out g.csv",
            dir.path());
  EXPECT_EQ(synth.status, 0) << synth.output;
  EXPECT_TRUE(fs::exists(dir.path() / "g.csv"));
  const Outcome lint = dgcli("lint --schema " + example("gcut.schema") +
                                 " --config " + example("gcut.cfg") + " --tape",
                             dir.path());
  EXPECT_EQ(lint.status, 0) << lint.output;
  EXPECT_TRUE(contains(lint.output, "lint: PASS")) << lint.output;
}

/// Trains a small gcut package (8 LSTM units) as g.dgpkg in `dir`; returns
/// the train command's outcome.
Outcome train_package(const fs::path& dir, int iterations) {
  const Outcome synth = dgcli(
      "make-synth --dataset gcut --n 12 --seed 3 --schema g.schema --out g.csv",
      dir);
  if (synth.status != 0) return synth;
  return dgcli("train --schema g.schema --data g.csv --out g.dgpkg "
               "--iterations " + std::to_string(iterations) +
                   " --batch 8 --lstm-units 8 --sample-len 5",
               dir);
}

// --iterations 0 is a valid request for an untrained package: it has no
// losses to print, and the package it writes passes the preflight.
TEST(DgcliTrain, ZeroIterationsWritesAPackageThatLints) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const Outcome train = train_package(dir.path(), 0);
  EXPECT_EQ(train.status, 0) << train.output;
  EXPECT_TRUE(contains(train.output, "wrote model package")) << train.output;
  const Outcome lint = dgcli("lint --package g.dgpkg", dir.path());
  EXPECT_EQ(lint.status, 0) << lint.output;
  EXPECT_TRUE(contains(lint.output, "lint: PASS")) << lint.output;
}

// generate loads through the package preflight: a config line edited so the
// weights no longer fit is refused by the preflight's finding, before the
// model is built at the edited sizes.
TEST(DgcliGenerate, RefusesWhatThePackagePreflightRefuses) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  ASSERT_EQ(train_package(dir.path(), 1).status, 0);
  std::stringstream text;
  text << std::ifstream(dir.path() / "g.dgpkg", std::ios::binary).rdbuf();
  std::string bytes = text.str();
  const std::string line = "\nlstm_units 8\n";
  const std::size_t at = bytes.find(line);
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, line.size(), "\nlstm_units 9\n");
  std::ofstream(dir.path() / "bad.dgpkg", std::ios::binary) << bytes;

  const Outcome gen =
      dgcli("generate --model bad.dgpkg --n 2 --out s.csv", dir.path());
  EXPECT_EQ(gen.status, 1) << gen.output;
  EXPECT_TRUE(contains(gen.output, "weight-shape")) << gen.output;
  EXPECT_FALSE(fs::exists(dir.path() / "s.csv"));
}

// --assume-first-order is the one place an op name becomes an Op: an
// unknown name is refused by name, and a known one is downgraded, so the
// gradient penalty's double backward through relu fails the lint (the
// ctest mirror of CI's negative control).
TEST(DgcliLint, AssumeFirstOrderNamesAreOps) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const Outcome unknown = dgcli("lint --schema " + example("gcut.schema") +
                                    " --assume-first-order fused_gelu",
                                dir.path());
  EXPECT_NE(unknown.status, 0) << unknown.output;
  EXPECT_TRUE(contains(unknown.output, "fused_gelu")) << unknown.output;
  const Outcome relu = dgcli("lint --schema " + example("gcut.schema") +
                                 " --assume-first-order relu",
                             dir.path());
  EXPECT_EQ(relu.status, 1) << relu.output;
  EXPECT_TRUE(contains(relu.output, "no-double-backward")) << relu.output;
}

}  // namespace
