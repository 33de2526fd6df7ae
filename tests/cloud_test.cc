/**
 * @file
 * Tests for the instance catalog: the paper's 8 real instances and
 * prices, the proxy rule, budget filters, and the market repricing.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "cloud/instances.h"

namespace ceer {
namespace cloud {
namespace {

using hw::GpuModel;

TEST(CatalogTest, PaperRealInstancesAndPrices)
{
    const InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
    EXPECT_DOUBLE_EQ(catalog.find("p3.2xlarge").hourlyUsd, 3.06);
    EXPECT_DOUBLE_EQ(catalog.find("p2.xlarge").hourlyUsd, 0.90);
    EXPECT_DOUBLE_EQ(catalog.find("g4dn.2xlarge").hourlyUsd, 0.752);
    EXPECT_DOUBLE_EQ(catalog.find("g3s.xlarge").hourlyUsd, 0.75);
    EXPECT_DOUBLE_EQ(catalog.find("p3.8xlarge").hourlyUsd, 12.24);
    EXPECT_DOUBLE_EQ(catalog.find("p2.8xlarge-4gpu-proxy").hourlyUsd,
                     3.60);
    EXPECT_DOUBLE_EQ(catalog.find("g4dn.12xlarge").hourlyUsd, 3.912);
    EXPECT_DOUBLE_EQ(catalog.find("g3.16xlarge").hourlyUsd, 4.56);

    EXPECT_FALSE(catalog.find("p3.2xlarge").isProxy);
    EXPECT_EQ(catalog.find("p3.8xlarge").numGpus, 4);
}

TEST(CatalogTest, ProxyPricingFollowsPaperRule)
{
    const InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
    // 3-GPU P2 proxy: 3/8 of p2.8xlarge ($7.20) = $2.70 (Sec. V).
    const GpuInstance &p2_3gpu = catalog.find(GpuModel::K80, 3);
    EXPECT_TRUE(p2_3gpu.isProxy);
    EXPECT_DOUBLE_EQ(p2_3gpu.hourlyUsd, 2.70);
    // 3-GPU G3 proxy: 3/4 of g3.16xlarge ($4.56) = $3.42.
    EXPECT_DOUBLE_EQ(catalog.find(GpuModel::M60, 3).hourlyUsd, 3.42);
    // 3-GPU G4 proxy: 3/4 of g4dn.12xlarge ($3.912) = $2.934.
    EXPECT_NEAR(catalog.find(GpuModel::T4, 3).hourlyUsd, 2.934, 1e-9);
    // 2-GPU P3 proxy: 2/4 of p3.8xlarge = $6.12.
    EXPECT_DOUBLE_EQ(catalog.find(GpuModel::V100, 2).hourlyUsd, 6.12);
}

TEST(CatalogTest, SixteenInstancesCoverFourFamilies)
{
    const InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
    EXPECT_EQ(catalog.instances().size(), 16u);
    for (GpuModel gpu : hw::allGpuModels()) {
        const auto family = catalog.forGpu(gpu);
        ASSERT_EQ(family.size(), 4u);
        for (int k = 1; k <= 4; ++k)
            EXPECT_EQ(family[static_cast<std::size_t>(k) - 1].numGpus,
                      k);
    }
}

TEST(CatalogTest, HourlyBudgetFilter)
{
    const InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
    const auto affordable = catalog.withinHourlyBudget(1.0);
    for (const auto &instance : affordable)
        EXPECT_LE(instance.hourlyUsd, 1.0);
    // p2.xlarge ($0.90), g4dn.2xlarge, g3s.xlarge qualify.
    EXPECT_EQ(affordable.size(), 3u);
}

TEST(CatalogTest, HourlyBudgetScenarioSelection)
{
    // Paper Sec. V ($3/hr, tolerance $0.42): P2 -> 3 GPUs, G3 -> 3,
    // G4 -> 3, P3 -> 1.
    const InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
    const auto picks = catalog.largestPerFamilyWithin(3.0, 0.42);
    ASSERT_EQ(picks.size(), 4u);
    std::map<GpuModel, int> gpus;
    for (const auto &instance : picks)
        gpus[instance.gpu] = instance.numGpus;
    EXPECT_EQ(gpus[GpuModel::V100], 1);
    EXPECT_EQ(gpus[GpuModel::K80], 3);
    EXPECT_EQ(gpus[GpuModel::T4], 3);
    EXPECT_EQ(gpus[GpuModel::M60], 3);
}

TEST(CatalogTest, MarketPricingRatios)
{
    // Sec. V: per-GPU $3.06 / $0.95 / $0.55 / $0.15, linear in GPUs.
    const InstanceCatalog catalog = InstanceCatalog::marketPriced();
    EXPECT_DOUBLE_EQ(catalog.find(GpuModel::V100, 1).hourlyUsd, 3.06);
    EXPECT_DOUBLE_EQ(catalog.find(GpuModel::T4, 1).hourlyUsd, 0.95);
    EXPECT_DOUBLE_EQ(catalog.find(GpuModel::M60, 1).hourlyUsd, 0.55);
    EXPECT_DOUBLE_EQ(catalog.find(GpuModel::K80, 1).hourlyUsd, 0.15);
    EXPECT_DOUBLE_EQ(catalog.find(GpuModel::K80, 4).hourlyUsd, 0.60);
    // Under market prices P2 is by far the cheapest per GPU.
    EXPECT_LT(catalog.find(GpuModel::K80, 4).hourlyUsd,
              catalog.find(GpuModel::M60, 2).hourlyUsd);
}

TEST(CatalogTest, PerSecondPricing)
{
    const InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
    EXPECT_NEAR(catalog.find("p3.2xlarge").perSecondUsd(), 3.06 / 3600,
                1e-12);
}

TEST(CatalogTest, CsvRoundTrip)
{
    const InstanceCatalog original = InstanceCatalog::awsOnDemand();
    std::stringstream buffer;
    original.saveCsv(buffer);
    const InstanceCatalog loaded = InstanceCatalog::fromCsv(buffer);
    ASSERT_EQ(loaded.instances().size(), original.instances().size());
    for (std::size_t i = 0; i < loaded.instances().size(); ++i) {
        EXPECT_EQ(loaded.instances()[i].name,
                  original.instances()[i].name);
        EXPECT_EQ(loaded.instances()[i].gpu,
                  original.instances()[i].gpu);
        EXPECT_EQ(loaded.instances()[i].numGpus,
                  original.instances()[i].numGpus);
        EXPECT_NEAR(loaded.instances()[i].hourlyUsd,
                    original.instances()[i].hourlyUsd, 1e-6);
    }
}

TEST(CatalogTest, CsvAcceptsCustomOfferings)
{
    std::istringstream in(
        "name,gpu,gpus,hourly_usd\n"
        "spot-v100,V100,1,0.92\n"
        "other-cloud-t4,g4,2,0.41\n");
    const InstanceCatalog catalog = InstanceCatalog::fromCsv(in);
    ASSERT_EQ(catalog.instances().size(), 2u);
    EXPECT_EQ(catalog.find("spot-v100").gpu, GpuModel::V100);
    EXPECT_EQ(catalog.find("other-cloud-t4").numGpus, 2);
    EXPECT_DOUBLE_EQ(catalog.find("other-cloud-t4").hourlyUsd, 0.41);
}

TEST(CatalogTest, CsvRejectsMalformedRows)
{
    std::istringstream missing("name,gpu,gpus,hourly_usd\nfoo,V100\n");
    EXPECT_DEATH(InstanceCatalog::fromCsv(missing), "fields");
    std::istringstream bad_gpu(
        "name,gpu,gpus,hourly_usd\nfoo,H100,1,2.0\n");
    EXPECT_DEATH(InstanceCatalog::fromCsv(bad_gpu), "unknown GPU");
    std::istringstream bad_price(
        "name,gpu,gpus,hourly_usd\nfoo,V100,1,-2.0\n");
    EXPECT_DEATH(InstanceCatalog::fromCsv(bad_price), "bad row");
    // 2^32 + 1 GPUs must not narrow to a 1-GPU instance.
    std::istringstream huge_gpus(
        "name,gpu,gpus,hourly_usd\nfoo,V100,4294967297,2.0\n");
    EXPECT_DEATH(InstanceCatalog::fromCsv(huge_gpus), "gpus");
}

TEST(CatalogTest, MissingInstanceIsFatal)
{
    const InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
    EXPECT_DEATH(catalog.find("p4d.24xlarge"), "no instance");
    EXPECT_DEATH(catalog.find(GpuModel::V100, 7), "no 7-GPU");
}

} // namespace
} // namespace cloud
} // namespace ceer
