#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "sim/config.h"

namespace jasim {
namespace {

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
    const char *argv[] = {"prog", "noequals", "=value", "ok=1"};
    Config config =
        Config::fromArgs(4, const_cast<char **>(argv));
    EXPECT_FALSE(config.has("noequals"));
    EXPECT_TRUE(config.has("ok"));
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
    Config config;
    config.set("jobs", "-3");
    EXPECT_EQ(config.jobs(), 1u);
    config.set("jobs", "many");
    EXPECT_EQ(config.jobs(), 1u);
}

TEST(ConfigTest, JobsZeroMeansHardwareConcurrency)
{
    Config config;
    config.set("jobs", "0");
    EXPECT_GE(config.jobs(), 1u); // at least one worker, always
}

TEST(ConfigTest, JobsClampedToSaneCeiling)
{
    Config config;
    config.set("jobs", "100000");
    EXPECT_EQ(config.jobs(), 256u);
}

TEST(ConfigTest, FaultsDefaultsEmpty)
{
    const char *argv[] = {"prog", "ir=40"};
    Config config = Config::fromArgs(2, const_cast<char **>(argv));
    EXPECT_EQ(config.faults(), "");
}

TEST(ConfigTest, FaultsSpecSurvivesEveryFlagSpelling)
{
    const char *spec = "crash@60:node=0,restart=30;dbslow@120:mult=8";
    const std::string flag_eq = std::string("--faults=") + spec;
    const char *argv[] = {"prog", flag_eq.c_str()};
    Config config = Config::fromArgs(2, const_cast<char **>(argv));
    EXPECT_EQ(config.faults(), spec);

    // Space-separated form: the spec contains '=' but is clearly not
    // a positional key=value ('@' precedes the first '='), so the
    // flag must consume it.
    const char *argv2[] = {"prog", "--faults", spec, "ir=40"};
    Config config2 = Config::fromArgs(4, const_cast<char **>(argv2));
    EXPECT_EQ(config2.faults(), spec);
    EXPECT_EQ(config2.getDouble("ir", 0.0), 40.0);

    const std::string positional = std::string("faults=") + spec;
    const char *argv3[] = {"prog", positional.c_str()};
    Config config3 = Config::fromArgs(2, const_cast<char **>(argv3));
    EXPECT_EQ(config3.faults(), spec);
}

TEST(ConfigTest, FlagStillBooleanBeforePositionalKeyValue)
{
    const char *argv[] = {"prog", "--micro", "heap_mb=512"};
    Config config = Config::fromArgs(3, const_cast<char **>(argv));
    EXPECT_TRUE(config.getBool("micro", false));
    EXPECT_EQ(config.getInt("heap_mb", 0), 512);
}

TEST(ConfigTest, ReplicationAxesDefaultToLegacySingleBox)
{
    const char *argv[] = {"prog", "ir=40"};
    Config config = Config::fromArgs(2, const_cast<char **>(argv));
    EXPECT_EQ(config.shards(), 1u);
    EXPECT_EQ(config.replicas(), 0u);
    EXPECT_EQ(config.syncMode(), "async");
    EXPECT_FALSE(config.syncReplication());
}

TEST(ConfigTest, ReplicationAxesParseEveryFlagSpelling)
{
    const char *argv[] = {"prog", "--shards", "4", "--replicas=2",
                          "sync-mode=sync"};
    Config config = Config::fromArgs(5, const_cast<char **>(argv));
    EXPECT_EQ(config.shards(), 4u);
    EXPECT_EQ(config.replicas(), 2u);
    EXPECT_EQ(config.syncMode(), "sync");
    EXPECT_TRUE(config.syncReplication());
}

TEST(ConfigTest, ShardsValidatesAndClamps)
{
    Config config;
    config.set("shards", "0");
    EXPECT_EQ(config.shards(), 1u); // zero means the single box
    config.set("shards", "-3");
    EXPECT_EQ(config.shards(), 1u);
    config.set("shards", "lots");
    EXPECT_EQ(config.shards(), 1u);
    config.set("shards", "100000");
    EXPECT_EQ(config.shards(), 64u); // sane ceiling
}

TEST(ConfigTest, ReplicasValidatesAndClamps)
{
    Config config;
    config.set("replicas", "-1");
    EXPECT_EQ(config.replicas(), 0u); // negative: unreplicated
    config.set("replicas", "junk");
    EXPECT_EQ(config.replicas(), 0u);
    config.set("replicas", "999");
    EXPECT_EQ(config.replicas(), 8u); // sane ceiling
}

TEST(ConfigTest, SyncModeOnlyRecognisesSync)
{
    // Anything that is not exactly "sync" falls back to async: the
    // safe default never silently strengthens the ack guarantee.
    Config config;
    config.set("sync-mode", "SYNC");
    EXPECT_EQ(config.syncMode(), "async");
    config.set("sync-mode", "semisync");
    EXPECT_EQ(config.syncMode(), "async");
    config.set("sync-mode", "sync");
    EXPECT_TRUE(config.syncReplication());
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
