#include <gtest/gtest.h>

#include <set>

#include "jvm/method_registry.h"

namespace jasim {
namespace {

TEST(MethodRegistryTest, CountAndNames)
{
    MethodRegistry registry(8500, 1);
    EXPECT_EQ(registry.size(), 8500u);
    for (std::size_t i = 0; i < 100; ++i) {
        EXPECT_FALSE(registry.method(i).name.empty());
        EXPECT_GE(registry.method(i).bytecode_bytes, 16u);
    }
}

TEST(MethodRegistryTest, DeterministicForSeed)
{
    MethodRegistry a(500, 9), b(500, 9);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.method(i).name, b.method(i).name);
        EXPECT_EQ(a.method(i).category, b.method(i).category);
    }
}

TEST(MethodRegistryTest, AllCategoriesPresent)
{
    MethodRegistry registry(8500, 2);
    for (std::size_t c = 0; c < methodCategoryCount; ++c) {
        EXPECT_GT(registry.categoryCount(
                      static_cast<MethodCategory>(c)),
                  0u);
    }
}

TEST(MethodRegistryTest, BenchmarkCodeRareAmongHotRanks)
{
    // jas2004's own methods sit in the lukewarm tail, which is how the
    // paper's "2% of cycles in benchmark code" comes about.
    MethodRegistry registry(8500, 3);
    std::size_t hot_benchmark = 0;
    for (std::size_t i = 0; i < 250; ++i) {
        if (registry.method(i).category == MethodCategory::Benchmark)
            ++hot_benchmark;
    }
    EXPECT_LT(hot_benchmark, 20u);
    std::size_t tail_benchmark = 0;
    for (std::size_t i = 4000; i < 8500; ++i) {
        if (registry.method(i).category == MethodCategory::Benchmark)
            ++tail_benchmark;
    }
    EXPECT_GT(tail_benchmark, 200u);
}

TEST(MethodRegistryTest, PackagesMatchCategories)
{
    MethodRegistry registry(2000, 4);
    for (std::size_t i = 0; i < registry.size(); ++i) {
        const auto &m = registry.method(i);
        if (m.category == MethodCategory::WebSphere) {
            EXPECT_EQ(m.name.rfind("com.ibm.ws", 0), 0u);
        }
        if (m.category == MethodCategory::Benchmark) {
            EXPECT_EQ(m.name.rfind("org.spec.jappserver", 0), 0u);
        }
    }
}

TEST(MethodRegistryTest, CategoryNamesDistinct)
{
    std::set<std::string> names;
    for (std::size_t c = 0; c < methodCategoryCount; ++c)
        names.insert(
            methodCategoryName(static_cast<MethodCategory>(c)));
    EXPECT_EQ(names.size(), methodCategoryCount);
}

} // namespace
} // namespace jasim
