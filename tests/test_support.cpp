// Unit tests for src/support: strings, file I/O, RNG, logging, errors.
#include <gtest/gtest.h>

#include <filesystem>

#include "support/error.hpp"
#include "support/fileio.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"

namespace hcg {
namespace {

// ---------------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------------

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(Strings, SplitKeepsEmptyPiecesAndTrims) {
  EXPECT_EQ(split("a, b ,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("one", ','), (std::vector<std::string>{"one"}));
}

TEST(Strings, SplitWhitespaceDropsEmptyPieces) {
  EXPECT_EQ(split_whitespace("  a\t b \n c  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_whitespace("   ").empty());
  EXPECT_TRUE(split_whitespace("").empty());
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("hcg_fft", "hcg_"));
  EXPECT_FALSE(starts_with("hcg", "hcg_"));
  EXPECT_TRUE(ends_with("file.isa", ".isa"));
  EXPECT_FALSE(ends_with("isa", ".isa"));
  EXPECT_TRUE(starts_with("x", ""));
  EXPECT_TRUE(ends_with("x", ""));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replace_all("hello", "xyz", "q"), "hello");
  EXPECT_EQ(replace_all("abc", "", "x"), "abc");
  EXPECT_EQ(replace_all("isa neon isa", "isa", "ISA"), "ISA neon ISA");
}

TEST(Strings, ReplaceIdentifiersRenamesWholeTokensAtOnce) {
  const RenameMap renames = {
      {"buf1", "sig_a"}, {"sig_a", "buf1"}, {"x", "y"}};
  // Whole tokens only, like replace_identifier; the swap shows a replacement
  // is never renamed again.
  EXPECT_EQ(replace_identifiers("buf1[i] = sig_a[i] + buf10[i] * 2x;", renames),
            "sig_a[i] = buf1[i] + buf10[i] * 2x;");
  EXPECT_EQ(replace_identifiers("x+x_1+_x", renames), "y+x_1+_x");
  EXPECT_EQ(replace_identifiers("", renames), "");
  for (const char* text : {"buf1 = buf10;", "(buf1)[0]", "a.buf1"}) {
    EXPECT_EQ(replace_identifiers(text, {{"buf1", "t"}}),
              replace_identifier(text, "buf1", "t"))
        << text;
  }
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("HeLLo_123"), "hello_123");
}

TEST(Strings, ParseIntAcceptsDecimals) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("  -17 "), -17);
  EXPECT_EQ(parse_int("0"), 0);
}

TEST(Strings, ParseIntRejectsGarbage) {
  EXPECT_THROW(parse_int("12x"), ParseError);
  EXPECT_THROW(parse_int(""), ParseError);
  EXPECT_THROW(parse_int("1.5"), ParseError);
  EXPECT_THROW(parse_int("abc"), ParseError);
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(parse_double(" -2e3 "), -2000.0);
  EXPECT_THROW(parse_double("nope"), ParseError);
  EXPECT_THROW(parse_double(""), ParseError);
  EXPECT_THROW(parse_double("1.5garbage"), ParseError);
}

TEST(Strings, IsIdentifier) {
  EXPECT_TRUE(is_identifier("abc"));
  EXPECT_TRUE(is_identifier("_x9"));
  EXPECT_FALSE(is_identifier("9x"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("a-b"));
  EXPECT_FALSE(is_identifier("a b"));
}

TEST(Strings, SanitizeIdentifier) {
  EXPECT_EQ(sanitize_identifier("a-b c"), "a_b_c");
  EXPECT_EQ(sanitize_identifier("9lives"), "_9lives");
  EXPECT_EQ(sanitize_identifier(""), "_");
  EXPECT_EQ(sanitize_identifier("ok_name"), "ok_name");
}

// ---------------------------------------------------------------------------
// error hierarchy
// ---------------------------------------------------------------------------

TEST(Errors, ParseErrorFormatsPosition) {
  ParseError e("bad token", 3, 7);
  EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("column 7"), std::string::npos);
  EXPECT_EQ(e.line(), 3);
  EXPECT_EQ(e.column(), 7);
}

TEST(Errors, ParseErrorWithoutPosition) {
  ParseError e("bad");
  EXPECT_EQ(std::string(e.what()), "bad");
}

TEST(Errors, HierarchyIsCatchableAsBase) {
  EXPECT_THROW(throw ModelError("x"), Error);
  EXPECT_THROW(throw SynthesisError("x"), Error);
  EXPECT_THROW(throw ToolchainError("x"), Error);
  EXPECT_THROW(throw CodegenError("x"), Error);
}

TEST(Errors, RequireThrowsInternalError) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "boom"), InternalError);
}

// ---------------------------------------------------------------------------
// fileio
// ---------------------------------------------------------------------------

TEST(FileIo, WriteThenReadRoundTrips) {
  TempDir dir;
  const auto path = dir.path() / "sub" / "file.txt";
  write_file(path, "payload\nline2");
  EXPECT_EQ(read_file(path), "payload\nline2");
}

TEST(FileIo, ReadMissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/definitely/missing"), Error);
}

TEST(FileIo, TempDirIsRemovedOnDestruction) {
  std::filesystem::path where;
  {
    TempDir dir;
    where = dir.path();
    write_file(where / "x", "1");
    EXPECT_TRUE(std::filesystem::exists(where));
  }
  EXPECT_FALSE(std::filesystem::exists(where));
}

TEST(FileIo, TempDirKeepLeavesDirectory) {
  std::filesystem::path where;
  {
    TempDir dir;
    dir.keep();
    where = dir.path();
  }
  EXPECT_TRUE(std::filesystem::exists(where));
  std::filesystem::remove_all(where);
}

TEST(FileIo, TempDirsAreUnique) {
  TempDir a, b;
  EXPECT_NE(a.path(), b.path());
}

// ---------------------------------------------------------------------------
// rng
// ---------------------------------------------------------------------------

TEST(Rng, SameSeedSameSequence) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000000), b.uniform_int(0, 1000000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_different = false;
  for (int i = 0; i < 32; ++i) {
    if (a.uniform_int(0, 1 << 30) != b.uniform_int(0, 1 << 30)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

// The bounded draws are a cross-platform contract (fuzz seeds minimized on
// one stdlib must reproduce byte-for-byte on another), so the exact values
// are pinned.  A failure here means the mapping from the mt19937_64 stream
// to draws changed — which invalidates every committed fuzz reproducer.
TEST(Rng, PinnedValuesAreStdlibIndependent) {
  Rng ints(7);
  EXPECT_EQ(ints.uniform_int(0, 1000000), 754386);
  EXPECT_EQ(ints.uniform_int(0, 1000000), 949302);
  EXPECT_EQ(ints.uniform_int(0, 1000000), 117414);
  EXPECT_EQ(ints.uniform_int(0, 1000000), 891914);
  EXPECT_EQ(ints.uniform_int(0, 1000000), 141271);

  Rng small(7);
  EXPECT_EQ(small.uniform_int(-5, 5), 3);
  EXPECT_EQ(small.uniform_int(-5, 5), 5);
  EXPECT_EQ(small.uniform_int(-5, 5), -4);

  Rng reals(7);
  EXPECT_DOUBLE_EQ(reals.uniform_real(0.0, 1.0), 0.75438530415285798);
  EXPECT_DOUBLE_EQ(reals.uniform_real(0.0, 1.0), 0.94930120289264419);
  EXPECT_DOUBLE_EQ(reals.uniform_real(0.0, 1.0), 0.11741428103451801);

  Rng floats(42);
  const auto f = floats.signal_f32(2);
  EXPECT_FLOAT_EQ(f[0], 0.510311067f);
  EXPECT_FLOAT_EQ(f[1], 0.278062791f);

  Rng i32s(42);
  const auto i = i32s.signal_i32(2);
  EXPECT_EQ(i[0], 511);
  EXPECT_EQ(i[1], 278);

  // The full 64-bit span routes straight to the engine word.
  Rng full(9);
  EXPECT_EQ(full.uniform_int(INT64_MIN, INT64_MAX), 341617132996341335ll);
}

TEST(Rng, SignalsHaveRequestedSizeAndRange) {
  Rng rng(4);
  const auto f = rng.signal_f32(257);
  EXPECT_EQ(f.size(), 257u);
  for (float v : f) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LT(v, 1.0f);
  }
  const auto i = rng.signal_i32(64, -3, 3);
  EXPECT_EQ(i.size(), 64u);
  for (auto v : i) {
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

// ---------------------------------------------------------------------------
// stopwatch & logging
// ---------------------------------------------------------------------------

TEST(Stopwatch, ElapsedIsMonotonic) {
  Stopwatch timer;
  const double a = timer.elapsed_seconds();
  const double b = timer.elapsed_seconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(Stopwatch, ResetRestarts) {
  Stopwatch timer;
  (void)timer.elapsed_nanoseconds();
  timer.reset();
  EXPECT_LT(timer.elapsed_seconds(), 10.0);
}

TEST(Logging, LevelRoundTrips) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(before);
}

TEST(Logging, WritingBelowThresholdIsSafe) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kOff);
  log_debug() << "never shown " << 42;
  log_error() << "also suppressed";
  set_log_level(before);
}

}  // namespace
}  // namespace hcg
