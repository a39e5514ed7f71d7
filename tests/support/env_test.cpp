// The HMPI_* knob reader (support/env.hpp): one rule for every knob. Unset
// or empty keeps the fallback; flags and names match in any case; numbers
// parse whole, finite and in range; anything else throws InvalidArgument
// naming the variable and what it accepts.
#include "support/env.hpp"

#include <gtest/gtest.h>

#include <string>

#include "support/error.hpp"

#include "../scoped_env.hpp"

namespace hmpi::support::env {
namespace {

constexpr const char* kKnob = "HMPI_ENV_TEST_KNOB";

/// The InvalidArgument message `fn` throws, or "" when it does not throw.
template <typename Fn>
std::string rejection(Fn&& fn) {
  try {
    fn();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(Env, UnsetOrEmptyKeepsTheFallback) {
  constexpr const char* kNames[] = {"a", "b"};
  for (const char* unset : {static_cast<const char*>(nullptr), ""}) {
    ScopedEnv env(kKnob, unset);
    EXPECT_TRUE(flag(kKnob, true));
    EXPECT_FALSE(flag(kKnob, false));
    EXPECT_EQ(choice(kKnob, kNames, 1), 1);
    EXPECT_EQ(integer(kKnob, 1, 9, 7), 7);
    EXPECT_EQ(number(kKnob, /*positive=*/true, 0.5), 0.5);
    EXPECT_EQ(text(kKnob, "out.json"), "out.json");
  }
}

TEST(Env, FlagSpellingsInAnyCase) {
  for (const char* on : {"1", "true", "TRUE", "yes", "Yes", "on", "ON"}) {
    ScopedEnv env(kKnob, on);
    EXPECT_TRUE(flag(kKnob, false)) << on;
  }
  for (const char* off : {"0", "false", "False", "no", "NO", "off", "Off"}) {
    ScopedEnv env(kKnob, off);
    EXPECT_FALSE(flag(kKnob, true)) << off;
  }
  ScopedEnv env(kKnob, "maybe");
  EXPECT_EQ(rejection([] { flag(kKnob, false); }),
            "HMPI_ENV_TEST_KNOB='maybe' is not accepted (accepted: "
            "1|0|true|false|yes|no|on|off, any case)");
}

TEST(Env, ChoiceIsAnEntryOfItsListInAnyCase) {
  constexpr const char* kNames[] = {"auto", "two_level"};
  {
    ScopedEnv env(kKnob, "Two_Level");
    EXPECT_EQ(choice(kKnob, kNames, 0), 1);
  }
  for (const char* bad : {"two-level", "two_level ", "2"}) {
    ScopedEnv env(kKnob, bad);
    EXPECT_EQ(rejection([&] { choice(kKnob, kNames, 0); }),
              std::string("HMPI_ENV_TEST_KNOB='") + bad +
                  "' is not accepted (accepted: auto|two_level, any case)");
  }
}

TEST(Env, IntegerParsesWholeAndInRange) {
  for (const char* good : {"-3", "0", "5"}) {
    ScopedEnv env(kKnob, good);
    EXPECT_EQ(integer(kKnob, -3, 5, 1), std::stoll(good)) << good;
  }
  for (const char* bad : {"-4", "6", "1.5", " 2", "2 ", "+2", "0x2", "2x",
                          "99999999999999999999"}) {
    ScopedEnv env(kKnob, bad);
    const std::string what = rejection([] { integer(kKnob, -3, 5, 1); });
    EXPECT_NE(what.find(kKnob), std::string::npos) << bad;
    EXPECT_NE(what.find("a whole decimal int >= -3 and <= 5"),
              std::string::npos)
        << what;
  }
}

TEST(Env, NumberParsesWholeFiniteAndInRange) {
  {
    ScopedEnv env(kKnob, "1e-3");
    EXPECT_EQ(number(kKnob, /*positive=*/true, 1.0), 1e-3);
  }
  {
    ScopedEnv env(kKnob, "0");
    EXPECT_EQ(number(kKnob, /*positive=*/false, 1.0), 0.0);
    EXPECT_NE(rejection([] { number(kKnob, /*positive=*/true, 1.0); })
                  .find("a finite decimal number > 0"),
              std::string::npos);
  }
  for (const char* bad :
       {"-0.5", "nan", "inf", "-inf", "0.5abc", "0.5 ", "abc", "1e999"}) {
    ScopedEnv env(kKnob, bad);
    const std::string what = rejection([] { number(kKnob, false, 1.0); });
    EXPECT_NE(what.find(kKnob), std::string::npos) << bad;
    EXPECT_NE(what.find("a finite decimal number >= 0"), std::string::npos)
        << what;
  }
}

TEST(Env, TextIsTakenAsGiven) {
  ScopedEnv env(kKnob, " dir/Out File.json");
  EXPECT_EQ(text(kKnob, "x"), " dir/Out File.json");
}

}  // namespace
}  // namespace hmpi::support::env
