#include "tools/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

namespace urr::cli {
namespace {

/// Owns an argv built from `args` (argv[0] is the program name).
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    strings.insert(strings.begin(), "tool");
    for (std::string& s : strings) pointers.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers.size()); }
  char** argv() { return pointers.data(); }

  std::vector<std::string> strings;
  std::vector<char*> pointers;
};

struct Targets {
  std::string name = "unset";
  bool on = false;
  int count = 7;
  double rate = 1.5;
  uint64_t seed = 42;

  Flags AsFlags() {
    return {{"--name", &name},
            {"--on", &on},
            {"--count", &count},
            {"--rate", &rate},
            {"--seed", &seed}};
  }
};

Result<bool> Parse(Targets* t, std::vector<std::string> args,
                   std::vector<std::string>* words = nullptr) {
  Argv argv(std::move(args));
  return ParseFlags(argv.argc(), argv.argv(), t->AsFlags(), words);
}

TEST(CliFlagsTest, NumbersMustBeWholeTokens) {
  const std::vector<std::string> malformed = {"3O", "12x", "", " 4", "4 "};
  for (const std::string flag : {"--count", "--rate", "--seed"}) {
    for (const std::string& value : malformed) {
      Targets t;
      const Result<bool> r = Parse(&t, {flag, value});
      ASSERT_FALSE(r.ok()) << flag << " '" << value << "'";
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      // The message names both the flag and the rejected value.
      EXPECT_NE(r.status().message().find(flag), std::string::npos);
      EXPECT_NE(r.status().message().find("'" + value + "'"),
                std::string::npos)
          << r.status();
    }
  }
  // Untouched targets keep their defaults.
  Targets t;
  EXPECT_FALSE(Parse(&t, {"--count", "3O"}).ok());
  EXPECT_EQ(t.count, 7);
}

TEST(CliFlagsTest, RejectsOverflowAndSignedSeeds) {
  const std::vector<std::vector<std::string>> bad = {
      {"--count", "99999999999"},
      {"--count", "-99999999999"},
      {"--count", "99999999999999999999"},
      {"--rate", "1e999"},
      {"--seed", "99999999999999999999"},
      {"--seed", "-1"},
  };
  for (const auto& args : bad) {
    Targets t;
    const Result<bool> r = Parse(&t, args);
    EXPECT_FALSE(r.ok()) << args[0] << " " << args[1];
    EXPECT_NE(r.status().message().find(args[1]), std::string::npos)
        << r.status();
  }
}

TEST(CliFlagsTest, AcceptsWellFormedValues) {
  Targets t;
  const Result<bool> r =
      Parse(&t, {"--count", "-1", "--rate", "1e3", "--seed",
                 "18446744073709551615", "--name", "-x", "--on"});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(*r);
  EXPECT_EQ(t.count, -1);
  EXPECT_EQ(t.rate, 1000.0);
  EXPECT_EQ(t.seed, 18446744073709551615ULL);
  EXPECT_EQ(t.name, "-x");  // a value may start with '-'
  EXPECT_TRUE(t.on);
  ASSERT_TRUE(Parse(&t, {"--rate", "0.25"}).ok());
  EXPECT_EQ(t.rate, 0.25);
}

TEST(CliFlagsTest, MissingValueAndUnknownFlag) {
  Targets t;
  Result<bool> r = Parse(&t, {"--count"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "--count needs a value");
  r = Parse(&t, {"--on", "--nonsense"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "unknown flag: --nonsense");
  // Without a words list a bare word is an unknown flag too.
  r = Parse(&t, {"build"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "unknown flag: build");
}

TEST(CliFlagsTest, BareWordsAndHelp) {
  Targets t;
  std::vector<std::string> words;
  Result<bool> r = Parse(&t, {"build", "--count", "3", "file"}, &words);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(words, (std::vector<std::string>{"build", "file"}));
  EXPECT_EQ(t.count, 3);
  // A dash-prefixed unknown argument is still an unknown flag.
  EXPECT_FALSE(Parse(&t, {"-q"}, &words).ok());
  // --help / -h stop parsing: later errors are not reached.
  for (const std::string help : {"--help", "-h"}) {
    r = Parse(&t, {help, "--nonsense"});
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(*r);
  }
}

TEST(CliFlagsTest, MainExitCodes) {
  auto run_main = [](std::vector<std::string> args, Status run_status,
                     const WordsCheck& check = nullptr) {
    Targets t;
    int runs = 0;
    Argv argv(std::move(args));
    const int code = Main(
        argv.argc(), argv.argv(), "usage\n", t.AsFlags(),
        [&] {
          ++runs;
          return run_status;
        },
        check);
    return std::make_pair(code, runs);
  };
  EXPECT_EQ(run_main({"--count", "2"}, Status::OK()), std::make_pair(0, 1));
  EXPECT_EQ(run_main({"--help"}, Status::OK()), std::make_pair(0, 0));
  EXPECT_EQ(run_main({"--count", "3O"}, Status::OK()), std::make_pair(2, 0));
  EXPECT_EQ(run_main({"--nonsense"}, Status::OK()), std::make_pair(2, 0));
  EXPECT_EQ(run_main({}, Status::IOError("disk")), std::make_pair(1, 1));
  const WordsCheck need_mode = [](const std::vector<std::string>& words) {
    return words.empty() ? Status::InvalidArgument("missing mode")
                         : Status::OK();
  };
  EXPECT_EQ(run_main({}, Status::OK(), need_mode), std::make_pair(2, 0));
  EXPECT_EQ(run_main({"build"}, Status::OK(), need_mode),
            std::make_pair(0, 1));
  EXPECT_EQ(run_main({"--help"}, Status::OK(), need_mode),
            std::make_pair(0, 0));
}

TEST(CliFlagsTest, ScenarioFlagsAreTheSharedThirty) {
  ScenarioOptions opt;
  const Flags flags = ScenarioFlags(&opt);
  std::set<std::string> names;
  for (const Flag& f : flags) {
    EXPECT_TRUE(names.insert(f.name).second) << "duplicate " << f.name;
    EXPECT_NE(std::string(kScenarioUsage).find(f.name), std::string::npos)
        << f.name << " is missing from the usage text";
  }
  EXPECT_EQ(names.size(), 30u);

  Argv argv({"--window", "-1"});
  ASSERT_TRUE(ParseFlags(argv.argc(), argv.argv(), flags).ok());
  const auto scenario = BuildScenario(opt);
  ASSERT_FALSE(scenario.ok());
  EXPECT_EQ(scenario.status().code(), StatusCode::kInvalidArgument);
}

TEST(CliFileTest, ReadBackWhatWasWritten) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "urr_cli_file_test.txt")
          .string();
  ASSERT_TRUE(WriteFile(path, "line one\nline two\n").ok());
  const Result<std::string> back = ReadFile(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, "line one\nline two\n");
  std::remove(path.c_str());
  EXPECT_EQ(ReadFile(path).status().code(), StatusCode::kIOError);
}

TEST(CliFileTest, FailedFlushIsAnError) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const Status st = WriteFile("/dev/full", "event log\n");
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st;
}

}  // namespace
}  // namespace urr::cli
