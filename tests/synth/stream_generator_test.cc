#include <gtest/gtest.h>

#include <map>

#include "synth/stream_generator.h"

namespace jasim {
namespace {

class StreamGeneratorTest : public ::testing::Test
{
  protected:
    StreamGeneratorTest()
        : layout_("code", 0x1000000, 1024 * 1024, 400, 500, 1.0, 1,
                  10.0)
    {
    }

    std::unique_ptr<StreamGenerator>
    makeGenerator(StreamMix mix = StreamMix{}, std::uint64_t seed = 7)
    {
        mix.lock_region_base = 0x9000000;
        mix.lock_count = 64;
        return std::make_unique<StreamGenerator>(
            "test", mix, &layout_,
            std::make_unique<SequentialScanModel>(0x4000000,
                                                  1024 * 1024, 64),
            std::make_unique<SequentialScanModel>(0x5000000,
                                                  1024 * 1024, 64),
            seed);
    }

    CodeLayout layout_;
};

TEST_F(StreamGeneratorTest, KindIsStaticPerPc)
{
    auto gen = makeGenerator();
    for (Addr pc = 0x1000000; pc < 0x1000400; pc += 4)
        EXPECT_EQ(gen->kindAt(pc), gen->kindAt(pc));
}

TEST_F(StreamGeneratorTest, MixFrequenciesRoughlyMatch)
{
    auto gen = makeGenerator();
    std::map<InstKind, std::uint64_t> counts;
    const int n = 300000;
    for (int i = 0; i < n; ++i)
        ++counts[gen->next().kind];
    const StreamMix mix;
    EXPECT_NEAR(counts[InstKind::Load] / double(n), mix.p_load, 0.06);
    EXPECT_NEAR(counts[InstKind::Store] / double(n), mix.p_store, 0.06);
    EXPECT_GT(counts[InstKind::BranchCond], 0u);
    EXPECT_GT(counts[InstKind::Call] + counts[InstKind::VirtualCall],
              0u);
    EXPECT_GT(counts[InstKind::Return], 0u);
    EXPECT_GT(counts[InstKind::Larx], 0u);
}

TEST_F(StreamGeneratorTest, PcsStayInsideLayout)
{
    auto gen = makeGenerator();
    for (int i = 0; i < 100000; ++i) {
        const Instr inst = gen->next();
        ASSERT_GE(inst.pc, 0x1000000u);
        ASSERT_LT(inst.pc, 0x1000000u + 1024 * 1024);
    }
}

TEST_F(StreamGeneratorTest, MemoryOpsHaveAddresses)
{
    auto gen = makeGenerator();
    for (int i = 0; i < 50000; ++i) {
        const Instr inst = gen->next();
        if (inst.kind == InstKind::Load || inst.kind == InstKind::Store) {
            ASSERT_NE(inst.ea, 0u);
        }
    }
}

TEST_F(StreamGeneratorTest, LarxStcxShareLockWord)
{
    StreamMix mix;
    mix.p_larx = 0.05; // frequent, to exercise pairing quickly
    auto gen = makeGenerator(mix);
    Addr last_larx = 0;
    int paired = 0, stcx_seen = 0;
    for (int i = 0; i < 200000 && stcx_seen < 50; ++i) {
        const Instr inst = gen->next();
        if (inst.kind == InstKind::Larx)
            last_larx = inst.ea;
        if (inst.kind == InstKind::Stcx && last_larx != 0) {
            ++stcx_seen;
            paired += inst.ea == last_larx;
        }
    }
    ASSERT_GT(stcx_seen, 10);
    EXPECT_GT(paired, stcx_seen / 2);
}

TEST_F(StreamGeneratorTest, BranchTargetsWithinMethod)
{
    auto gen = makeGenerator();
    for (int i = 0; i < 100000; ++i) {
        const Instr inst = gen->next();
        if (inst.kind == InstKind::BranchCond ||
            inst.kind == InstKind::BranchDirect ||
            inst.kind == InstKind::BranchIndirect) {
            ASSERT_GE(inst.target, 0x1000000u);
            ASSERT_LT(inst.target, 0x1000000u + 1024 * 1024);
        }
    }
}

TEST_F(StreamGeneratorTest, ProfileNotTrappedInFewMethods)
{
    auto gen = makeGenerator();
    for (int i = 0; i < 400000; ++i)
        gen->next();
    const auto &samples = gen->segmentSamples();
    std::uint64_t total = 0, top = 0;
    std::size_t touched = 0;
    for (const auto s : samples) {
        total += s;
        top = std::max(top, s);
        touched += s > 0;
    }
    EXPECT_GT(touched, samples.size() / 3); // broad coverage
    EXPECT_LT(top / double(total), 0.30);   // no absorbing method
}

TEST_F(StreamGeneratorTest, DeterministicForSeed)
{
    auto a = makeGenerator(StreamMix{}, 99);
    auto b = makeGenerator(StreamMix{}, 99);
    for (int i = 0; i < 10000; ++i) {
        const Instr x = a->next();
        const Instr y = b->next();
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(static_cast<int>(x.kind), static_cast<int>(y.kind));
        ASSERT_EQ(x.ea, y.ea);
    }
}

TEST_F(StreamGeneratorTest, DevirtualizationRemovesVirtualCalls)
{
    StreamMix mix;
    mix.p_virtual_call = 0.05; // plenty of virtual sites
    auto plain = makeGenerator(mix, 3);
    auto devirt = makeGenerator(mix, 3);
    devirt->setDevirtualizedFraction(1.0);
    std::uint64_t plain_virtual = 0, devirt_virtual = 0;
    std::uint64_t devirt_calls = 0;
    for (int i = 0; i < 100000; ++i) {
        plain_virtual += plain->next().kind == InstKind::VirtualCall;
        const Instr inst = devirt->next();
        devirt_virtual += inst.kind == InstKind::VirtualCall;
        devirt_calls += inst.kind == InstKind::Call;
    }
    EXPECT_GT(plain_virtual, 1000u);
    EXPECT_EQ(devirt_virtual, 0u); // every site converted
    EXPECT_GT(devirt_calls, 1000u);
}

TEST_F(StreamGeneratorTest, EpisodesResampleMethods)
{
    StreamMix with, without;
    with.dispatch_episode_insts = 500;
    without.dispatch_episode_insts = 0;
    auto a = makeGenerator(with, 5);
    auto b = makeGenerator(without, 5);
    for (int i = 0; i < 100000; ++i) {
        a->next();
        b->next();
    }
    std::size_t touched_a = 0, touched_b = 0;
    for (const auto s : a->segmentSamples())
        touched_a += s > 0;
    for (const auto s : b->segmentSamples())
        touched_b += s > 0;
    EXPECT_GE(touched_a, touched_b);
}

} // namespace
} // namespace jasim
