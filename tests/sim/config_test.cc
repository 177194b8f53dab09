#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/config.h"

namespace jasim {
namespace {

/** What `call` throws as std::invalid_argument, or "no throw". */
template <typename Call>
std::string
message(Call call)
{
    try {
        call();
    } catch (const std::invalid_argument &error) {
        return error.what();
    }
    return "no throw";
}

TEST(ConfigTest, ParsesKeyValueArgs)
{
    const char *argv[] = {"prog", "ir=40", "seed=7", "disk=ramdisk"};
    Config config =
        Config::fromArgs(4, const_cast<char **>(argv));
    EXPECT_EQ(config.getInt("ir", 0), 40);
    EXPECT_EQ(config.getInt("seed", 0), 7);
    EXPECT_EQ(config.getString("disk", ""), "ramdisk");
}

TEST(ConfigTest, ParsesGnuStyleFlags)
{
    const char *argv[] = {"prog", "--seed", "7", "--nodes=4", "--micro",
                          "ir=40", "--heap_large=0", "code_large=off"};
    Config config = Config::fromArgs(8, const_cast<char **>(argv));
    EXPECT_EQ(config.getInt("seed", 0), 7);
    EXPECT_EQ(config.getInt("nodes", 0), 4);
    EXPECT_TRUE(config.getBool("micro", false));
    EXPECT_EQ(config.getInt("ir", 0), 40);
    EXPECT_FALSE(config.getBool("heap_large", true));
    EXPECT_FALSE(config.getBool("code_large", true));
}

TEST(ConfigTest, BareTrailingFlagIsBoolean)
{
    const char *argv[] = {"prog", "--verbose"};
    Config config = Config::fromArgs(2, const_cast<char **>(argv));
    EXPECT_TRUE(config.getBool("verbose", false));
}

TEST(ConfigTest, FlagFollowedByFlagIsBoolean)
{
    const char *argv[] = {"prog", "--micro", "--seed", "9"};
    Config config = Config::fromArgs(4, const_cast<char **>(argv));
    EXPECT_TRUE(config.getBool("micro", false));
    EXPECT_EQ(config.getInt("seed", 0), 9);
}

TEST(ConfigTest, IgnoresMalformedArgs)
{
    // Tokens that are not key=value set no key, but the unread check
    // names them: a stray token is a typo, not something to skip.
    const char *argv[] = {"prog", "noequals", "=value", "ok=1"};
    Config config =
        Config::fromArgs(4, const_cast<char **>(argv));
    EXPECT_FALSE(config.has("noequals"));
    EXPECT_TRUE(config.has("ok"));
    EXPECT_TRUE(config.getBool("ok", false));
    const std::string what = message([&] { config.rejectUnread(); });
    EXPECT_NE(what.find("noequals"), std::string::npos) << what;
    EXPECT_NE(what.find("=value"), std::string::npos) << what;
    EXPECT_EQ(what.find("ok=1"), std::string::npos) << what;
}

TEST(ConfigTest, FallbacksWhenAbsent)
{
    Config config;
    EXPECT_EQ(config.getInt("x", 123), 123);
    EXPECT_DOUBLE_EQ(config.getDouble("y", 4.5), 4.5);
    EXPECT_EQ(config.getString("z", "dflt"), "dflt");
    EXPECT_TRUE(config.getBool("b", true));
}

TEST(ConfigTest, BoolParsing)
{
    Config config;
    config.set("a", "1");
    config.set("b", "true");
    config.set("c", "off");
    config.set("d", "yes");
    config.set("e", "false");
    config.set("f", "on");
    EXPECT_TRUE(config.getBool("a", false));
    EXPECT_TRUE(config.getBool("b", false));
    EXPECT_FALSE(config.getBool("c", true));
    EXPECT_TRUE(config.getBool("d", false));
    EXPECT_FALSE(config.getBool("e", true));
    EXPECT_TRUE(config.getBool("f", false));
    config.set("g", "no");
    EXPECT_FALSE(config.getBool("g", true));
    config.set("h", "maybe"); // used to mean false
    EXPECT_NE(message([&] { config.getBool("h", true); }).find("h=maybe"),
              std::string::npos);
}

TEST(ConfigTest, DoubleAndHexInts)
{
    Config config;
    config.set("f", "2.75");
    config.set("h", "0x10");
    config.set("o", "010"); // base 0: octal
    config.set("n", "-12");
    config.set("e", "1e9");
    EXPECT_DOUBLE_EQ(config.getDouble("f", 0.0), 2.75);
    EXPECT_EQ(config.getInt("h", 0), 16);
    EXPECT_EQ(config.getInt("o", 0), 8);
    EXPECT_EQ(config.getInt("n", 0), -12);
    EXPECT_DOUBLE_EQ(config.getDouble("n", 0.0), -12.0);
    EXPECT_DOUBLE_EQ(config.getDouble("e", 0.0), 1e9);
}

TEST(ConfigTest, MalformedNumbersThrowNamingTheToken)
{
    Config config;
    config.set("ir", "abc");
    config.set("steady", "30x");
    config.set("seed", "");
    config.set("heap_mb", "99999999999999999999");
    const auto message = [&](auto get) {
        try {
            get();
        } catch (const std::invalid_argument &error) {
            return std::string(error.what());
        }
        return std::string("no throw");
    };
    EXPECT_NE(message([&] { config.getDouble("ir", 40.0); })
                  .find("ir=abc"),
              std::string::npos);
    EXPECT_NE(message([&] { config.getInt("ir", 40); }).find("ir=abc"),
              std::string::npos);
    EXPECT_NE(message([&] { config.getDouble("steady", 1.0); })
                  .find("steady=30x"),
              std::string::npos);
    EXPECT_NE(message([&] { config.getInt("steady", 1); })
                  .find("steady=30x"),
              std::string::npos);
    EXPECT_THROW(config.getInt("seed", 42), std::invalid_argument);
    EXPECT_THROW(config.getInt("heap_mb", 1024), std::invalid_argument);
}

TEST(ConfigTest, JobsDefaultsToSerial)
{
    const char *argv[] = {"prog", "ir=40"};
    Config config = Config::fromArgs(2, const_cast<char **>(argv));
    EXPECT_EQ(config.jobs(), 1u);
}

TEST(ConfigTest, JobsParsesGnuStyleFlag)
{
    const char *argv[] = {"prog", "--jobs", "4"};
    Config config = Config::fromArgs(3, const_cast<char **>(argv));
    EXPECT_EQ(config.jobs(), 4u);

    const char *argv2[] = {"prog", "--jobs=7"};
    Config config2 = Config::fromArgs(2, const_cast<char **>(argv2));
    EXPECT_EQ(config2.jobs(), 7u);

    const char *argv3[] = {"prog", "jobs=2"};
    Config config3 = Config::fromArgs(2, const_cast<char **>(argv3));
    EXPECT_EQ(config3.jobs(), 2u);
}

TEST(ConfigTest, JobsRejectsNegativeAndGarbage)
{
    // These used to fall back to a serial run without a word.
    Config config;
    config.set("jobs", "-3");
    EXPECT_NE(message([&] { config.jobs(); }).find("jobs=-3"),
              std::string::npos);
    config.set("jobs", "many");
    EXPECT_NE(message([&] { config.jobs(); }).find("jobs=many"),
              std::string::npos);
}

TEST(ConfigTest, JobsZeroMeansHardwareConcurrency)
{
    Config config;
    config.set("jobs", "0");
    EXPECT_GE(config.jobs(), 1u); // at least one worker, always
}

TEST(ConfigTest, JobsClampedToSaneCeiling)
{
    // 256 is the ceiling, so a typo cannot start a thread bomb; past it
    // the read throws instead of clamping.
    Config config;
    config.set("jobs", "256");
    EXPECT_EQ(config.jobs(), 256u);
    config.set("jobs", "100000");
    EXPECT_NE(message([&] { config.jobs(); }).find("jobs=100000"),
              std::string::npos);
}

TEST(ConfigTest, FaultsDefaultsEmpty)
{
    const char *argv[] = {"prog", "ir=40"};
    Config config = Config::fromArgs(2, const_cast<char **>(argv));
    EXPECT_EQ(config.getString("faults", ""), "");
}

TEST(ConfigTest, FaultsSpecSurvivesEveryFlagSpelling)
{
    const char *spec = "crash@60:node=0,restart=30;dbslow@120:mult=8";
    const std::string flag_eq = std::string("--faults=") + spec;
    const char *argv[] = {"prog", flag_eq.c_str()};
    Config config = Config::fromArgs(2, const_cast<char **>(argv));
    EXPECT_EQ(config.getString("faults", ""), spec);

    // Space-separated form: the spec contains '=' but is clearly not
    // a positional key=value ('@' precedes the first '='), so the
    // flag must consume it.
    const char *argv2[] = {"prog", "--faults", spec, "ir=40"};
    Config config2 = Config::fromArgs(4, const_cast<char **>(argv2));
    EXPECT_EQ(config2.getString("faults", ""), spec);
    EXPECT_EQ(config2.getDouble("ir", 0.0), 40.0);
    EXPECT_NO_THROW(config2.rejectUnread());

    const std::string positional = std::string("faults=") + spec;
    const char *argv3[] = {"prog", positional.c_str()};
    Config config3 = Config::fromArgs(2, const_cast<char **>(argv3));
    EXPECT_EQ(config3.getString("faults", ""), spec);
}

TEST(ConfigTest, FlagStillBooleanBeforePositionalKeyValue)
{
    const char *argv[] = {"prog", "--micro", "heap_mb=512"};
    Config config = Config::fromArgs(3, const_cast<char **>(argv));
    EXPECT_TRUE(config.getBool("micro", false));
    EXPECT_EQ(config.getInt("heap_mb", 0), 512);
}

// The replication axis as abl_cluster_scaling reads it: shards 1 to
// 64, replicas 0 to 8, and sync-mode one of sync or async.
std::int64_t
shardsOf(const Config &config)
{
    return config.getInt("shards", 1, 1, 64);
}

std::int64_t
replicasOf(const Config &config)
{
    return config.getInt("replicas", 0, 0, 8);
}

std::string
syncModeOf(const Config &config)
{
    return config.getChoice("sync-mode", "async", {"sync", "async"});
}

TEST(ConfigTest, ReplicationAxesDefaultToLegacySingleBox)
{
    const char *argv[] = {"prog", "ir=40"};
    Config config = Config::fromArgs(2, const_cast<char **>(argv));
    EXPECT_EQ(shardsOf(config), 1);
    EXPECT_EQ(replicasOf(config), 0);
    EXPECT_EQ(syncModeOf(config), "async");
}

TEST(ConfigTest, ReplicationAxesParseEveryFlagSpelling)
{
    const char *argv[] = {"prog", "--shards", "4", "--replicas=2",
                          "sync-mode=sync"};
    Config config = Config::fromArgs(5, const_cast<char **>(argv));
    EXPECT_EQ(shardsOf(config), 4);
    EXPECT_EQ(replicasOf(config), 2);
    EXPECT_EQ(syncModeOf(config), "sync");
    EXPECT_NO_THROW(config.rejectUnread());
}

TEST(ConfigTest, ShardsValidatesAndClamps)
{
    // Zero used to mean one shard, and 1000 to mean 64: both now throw
    // naming the token, and so do negatives and garbage.
    Config config;
    for (const char *bad : {"0", "1000", "100000", "-3", "lots"}) {
        config.set("shards", bad);
        EXPECT_NE(message([&] { shardsOf(config); })
                      .find(std::string("shards=") + bad),
                  std::string::npos)
            << bad;
    }
    config.set("shards", "64");
    EXPECT_EQ(shardsOf(config), 64);
}

TEST(ConfigTest, ReplicasValidatesAndClamps)
{
    Config config;
    for (const char *bad : {"99", "999", "-1", "junk"}) {
        config.set("replicas", bad);
        EXPECT_NE(message([&] { replicasOf(config); })
                      .find(std::string("replicas=") + bad),
                  std::string::npos)
            << bad;
    }
    config.set("replicas", "8");
    EXPECT_EQ(replicasOf(config), 8);
}

TEST(ConfigTest, SyncModeOnlyRecognisesSync)
{
    // Anything but the two words used to run as async; now it throws
    // naming the token and the allowed words.
    Config config;
    for (const char *bad : {"garbage", "SYNC", "semisync"}) {
        config.set("sync-mode", bad);
        const std::string what = message([&] { syncModeOf(config); });
        EXPECT_NE(what.find(std::string("sync-mode=") + bad),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("sync, async"), std::string::npos) << what;
    }
    config.set("sync-mode", "sync");
    EXPECT_EQ(syncModeOf(config), "sync");
}

TEST(ConfigTest, RangedReadsNameTheTokenAndTheRange)
{
    Config config;
    config.set("spindles", "0");
    config.set("drop", "1.5");
    config.set("ir", "0");
    EXPECT_EQ(message([&] { config.getInt("spindles", 2, 1); }),
              "spindles=0: must be at least 1");
    EXPECT_EQ(message([&] { config.getDouble("drop", 0.0, 0.0, 1.0); }),
              "drop=1.5: must be at least 0 and at most 1");
    EXPECT_EQ(message([&] { config.getDouble("ir", 40.0, kAboveZero); }),
              "ir=0: must be above 0");
    // The bounds are in range, and an absent key takes its fallback.
    config.set("spindles", "1");
    EXPECT_EQ(config.getInt("spindles", 2, 1), 1);
    config.set("drop", "1");
    EXPECT_DOUBLE_EQ(config.getDouble("drop", 0.0, 0.0, 1.0), 1.0);
    EXPECT_EQ(config.getInt("absent", 7, 1, 4), 7);
}

TEST(ConfigTest, DoublesMustBeFinite)
{
    // `ir=inf` used to run forever, and `ir=nan` to end in bad_alloc.
    Config config;
    for (const char *bad : {"inf", "-inf", "nan", "1e400"}) {
        config.set("ir", bad);
        EXPECT_NE(message([&] { config.getDouble("ir", 40.0); })
                      .find(std::string("ir=") + bad),
                  std::string::npos)
            << bad;
    }
}

TEST(ConfigTest, ParseIntKeepsBaseZeroAndWholeText)
{
    EXPECT_EQ(parseInt("x", "0x10"), 16);
    EXPECT_EQ(parseInt("x", "-12"), -12);
    for (const char *bad :
         {"1.7", "2.5", "1e30", "", "3x", "99999999999999999999"})
        EXPECT_EQ(message([&] { parseInt("node=" + std::string(bad), bad); }),
                  "node=" + std::string(bad) + ": not an integer");
    EXPECT_DOUBLE_EQ(parseDouble("x", "1e30"), 1e30);
}

// Inputs the old readers accepted with a surprise, as the one reader
// treats them now.

TEST(ConfigTest, NodesOneMeansOneNode)
{
    // `--nodes 1` used to mean "unset" on the sweep benches.
    const char *argv[] = {"prog", "--nodes", "1"};
    Config config = Config::fromArgs(3, const_cast<char **>(argv));
    EXPECT_EQ(config.getInt("nodes", 8, 1, 64), 1);
    config.set("nodes", "0");
    EXPECT_NE(message([&] { config.getInt("nodes", 8, 1, 64); })
                  .find("nodes=0"),
              std::string::npos);
}

TEST(ConfigTest, UnknownEnumValuesThrowNamingTheAllowedWords)
{
    // `--lb garbage` used to run least-connections, and `disk=garbage`
    // the RAM disk.
    const char *argv[] = {"prog", "--lb", "garbage", "disk=garbage"};
    Config config = Config::fromArgs(4, const_cast<char **>(argv));
    EXPECT_EQ(
        message([&] { config.getChoice("lb", "lc", {"lc", "rr", "wrr"}); }),
        "lb=garbage: must be one of lc, rr, wrr");
    EXPECT_EQ(message([&] {
                  config.getChoice("disk", "ramdisk",
                                   {"ramdisk", "spinning"});
              }),
              "disk=garbage: must be one of ramdisk, spinning");
    EXPECT_EQ(Config().getChoice("lb", "lc", {"lc", "rr", "wrr"}), "lc");
}

TEST(ConfigTest, BareTrailingFlagStillReadsAsTrue)
{
    const char *argv[] = {"prog", "micro=0", "--heap_large"};
    Config config = Config::fromArgs(3, const_cast<char **>(argv));
    EXPECT_FALSE(config.getBool("micro", true));
    EXPECT_TRUE(config.getBool("heap_large", false));
    EXPECT_NO_THROW(config.rejectUnread());
}

TEST(ConfigTest, UnknownKeysAndStrayTokensAreRejected)
{
    // `--fastpath=0`, `--bogus_key 7` and a bare `42` were ignored.
    const char *argv[] = {"prog", "--fastpath=0", "--bogus_key", "7",
                          "42", "ir=40"};
    Config config = Config::fromArgs(6, const_cast<char **>(argv));
    EXPECT_DOUBLE_EQ(config.getDouble("ir", 10.0), 40.0);
    const std::string what = message([&] { config.rejectUnread(); });
    EXPECT_NE(what.find("fastpath=0"), std::string::npos) << what;
    EXPECT_NE(what.find("bogus_key=7"), std::string::npos) << what;
    EXPECT_NE(what.find(" 42"), std::string::npos) << what;
    EXPECT_EQ(what.find("ir="), std::string::npos) << what;
}

TEST(ConfigTest, EveryGetterCountsAsARead)
{
    const char *argv[] = {"prog", "a=1", "b=x", "c=1.5", "--d", "e=rr",
                          "--jobs", "2"};
    Config config = Config::fromArgs(8, const_cast<char **>(argv));
    config.getInt("a", 0);
    config.getString("b", "");
    config.getDouble("c", 0.0);
    config.getBool("d", false);
    config.getChoice("e", "lc", {"lc", "rr"});
    config.getInt("absent", 0);
    EXPECT_EQ(message([&] { config.rejectUnread(); }),
              "unknown argument: jobs=2");
    EXPECT_EQ(config.jobs(), 2u);
    EXPECT_NO_THROW(config.rejectUnread());

    // has() alone is not a read.
    config.set("f", "1");
    EXPECT_TRUE(config.has("f"));
    EXPECT_EQ(message([&] { config.rejectUnread(); }),
              "unknown argument: f=1");
}

TEST(ConfigTest, SplitSpecContinuesFragmentsWithoutEquals)
{
    const std::vector<SpecItem> items =
        splitSpec("--faults", " sides=0, 1|db0 ,dur=5 ");
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(items[0].key, "sides");
    EXPECT_EQ(items[0].value, "0,1|db0");
    EXPECT_EQ(items[0].what, "--faults: sides=0,1|db0");
    EXPECT_EQ(items[1].key, "dur");
    EXPECT_EQ(items[1].value, "5");
}

TEST(ConfigTest, SplitSpecRejectsALeadingFragmentWithoutEquals)
{
    EXPECT_EQ(message([] { splitSpec("--arrival", "burst,base=1"); }),
              "--arrival: expected key=value in \"burst\"");
    EXPECT_EQ(message([] { splitSpec("--arrival", " , x"); }),
              "--arrival: expected key=value in \"x\"");
}

TEST(ConfigTest, SplitSpecSkipsEmptyItems)
{
    EXPECT_TRUE(splitSpec("--admission", "").empty());
    EXPECT_TRUE(splitSpec("--admission", " , ,").empty());
    const std::vector<SpecItem> items =
        splitSpec("--admission", ",cap=4,,queue= 9 ,");
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(items[0].key, "cap");
    EXPECT_EQ(items[0].value, "4");
    EXPECT_EQ(items[1].key, "queue");
    EXPECT_EQ(items[1].value, "9");
    EXPECT_EQ(splitList(" a | |b", '|'),
              (std::vector<std::string>{"a", "", "b"}));
}

TEST(ConfigTest, SetOverwrites)
{
    Config config;
    config.set("k", "1");
    config.set("k", "2");
    EXPECT_EQ(config.getInt("k", 0), 2);
    EXPECT_EQ(config.entries().size(), 1u);
}

} // namespace
} // namespace jasim
