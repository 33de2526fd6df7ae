#include "cloud/instances.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <map>
#include <ostream>

#include "io/cbf.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/random.h"
#include "util/strings.h"

namespace ceer {
namespace cloud {

using hw::GpuModel;

namespace {

/** Real AWS instance names for the 1-GPU and multi-GPU offerings. */
struct FamilyOffering
{
    GpuModel gpu;
    const char *singleName;
    double singleUsd;
    const char *multiName;
    int multiGpus;
    double multiUsd;
};

constexpr FamilyOffering kAws[] = {
    {GpuModel::V100, "p3.2xlarge", 3.06, "p3.8xlarge", 4, 12.24},
    {GpuModel::K80, "p2.xlarge", 0.90, "p2.8xlarge", 8, 7.20},
    {GpuModel::T4, "g4dn.2xlarge", 0.752, "g4dn.12xlarge", 4, 3.912},
    {GpuModel::M60, "g3s.xlarge", 0.75, "g3.16xlarge", 4, 4.56},
};

/// Upper bound on an instance's GPU count, in both dialects.
constexpr std::int64_t kMaxInstanceGpus = std::int64_t{1} << 20;

/**
 * The one row check for a catalog instance, shared by the CSV and CBF
 * decoders: a known GPU, gpus in [1, kMaxInstanceGpus] (checked before
 * it is narrowed to int) and a positive finite hourly price. Appends
 * the instance to @p catalog on success.
 */
bool
addInstance(std::size_t row, std::string name, const std::string &gpu,
            std::int64_t gpus, double hourly_usd, InstanceCatalog *catalog,
            std::string *error)
{
    GpuInstance instance;
    if (!hw::gpuModelFromName(gpu, instance.gpu)) {
        *error = util::format("row %zu: unknown GPU '%s'", row,
                              gpu.c_str());
        return false;
    }
    if (gpus < 1 || gpus > kMaxInstanceGpus) {
        *error = util::format(
            "row %zu: bad row for '%s': gpus %lld not in [1, %lld]", row,
            name.c_str(), static_cast<long long>(gpus),
            static_cast<long long>(kMaxInstanceGpus));
        return false;
    }
    if (!(hourly_usd > 0.0) || !std::isfinite(hourly_usd)) {
        *error = util::format(
            "row %zu: bad row for '%s': hourly_usd %g is not a positive "
            "finite price", row, name.c_str(), hourly_usd);
        return false;
    }
    instance.name = std::move(name);
    instance.numGpus = static_cast<int>(gpus);
    instance.hourlyUsd = hourly_usd;
    catalog->add(std::move(instance));
    return true;
}

} // namespace

InstanceCatalog
InstanceCatalog::awsOnDemand()
{
    InstanceCatalog catalog;
    for (const auto &family : kAws) {
        catalog.add({family.singleName, family.gpu, 1, family.singleUsd,
                     false});
        const double per_gpu =
            family.multiUsd / static_cast<double>(family.multiGpus);
        for (int k = 2; k <= 4; ++k) {
            if (k == family.multiGpus) {
                catalog.add({family.multiName, family.gpu, k,
                             family.multiUsd, false});
            } else {
                // Paper's proxy rule: use the multi-GPU instance with
                // only k GPUs active, at k/N of its rental cost.
                catalog.add({util::format("%s-%dgpu-proxy",
                                          family.multiName, k),
                             family.gpu, k, per_gpu * k, true});
            }
        }
    }
    return catalog;
}

InstanceCatalog
InstanceCatalog::marketPriced()
{
    // Per-GPU hourly prices from commodity market ratios (Sec. V).
    const std::map<GpuModel, double> per_gpu = {
        {GpuModel::V100, 3.06},
        {GpuModel::T4, 0.95},
        {GpuModel::M60, 0.55},
        {GpuModel::K80, 0.15},
    };
    InstanceCatalog catalog;
    for (const auto &family : kAws) {
        const double unit = per_gpu.at(family.gpu);
        for (int k = 1; k <= 4; ++k) {
            catalog.add({util::format("%s-market-%dgpu",
                                      hw::gpuFamilyName(family.gpu)
                                          .c_str(),
                                      k),
                         family.gpu, k, unit * k, k != 1});
        }
    }
    return catalog;
}

void
InstanceCatalog::add(GpuInstance instance)
{
    instances_.push_back(std::move(instance));
}

InstanceCatalog
InstanceCatalog::fromCsv(std::istream &in)
{
    InstanceCatalog catalog;
    std::string error;
    if (!tryFromCsv(in, &catalog, &error))
        util::fatal("InstanceCatalog::fromCsv: " + error);
    return catalog;
}

bool
InstanceCatalog::tryFromCsv(std::istream &in, InstanceCatalog *catalog,
                            std::string *error)
{
    InstanceCatalog parsed;
    std::vector<std::vector<std::string>> rows;
    if (!util::tryReadCsv(in, &rows, error))
        return false;
    for (std::size_t i = 1; i < rows.size(); ++i) {
        const auto &row = rows[i];
        if (row.size() < 4) {
            *error = util::format(
                "row %zu has %zu fields (need name,gpu,gpus,"
                "hourly_usd)", i, row.size());
            return false;
        }
        const auto gpus = util::parseInt64(row[2]);
        if (!gpus) {
            *error = util::format("row %zu column 3 (gpus): %s: '%s'",
                                  i, gpus.error, row[2].c_str());
            return false;
        }
        const auto price = util::parseDouble(row[3]);
        if (!price) {
            *error = util::format(
                "row %zu column 4 (hourly_usd): %s: '%s'", i,
                price.error, row[3].c_str());
            return false;
        }
        if (!addInstance(i, row[0], row[1], gpus.value, price.value,
                         &parsed, error))
            return false;
    }
    *catalog = std::move(parsed);
    return true;
}

void
InstanceCatalog::saveCsv(std::ostream &out) const
{
    util::CsvWriter writer(out);
    writer.writeRow({"name", "gpu", "gpus", "hourly_usd"});
    for (const auto &instance : instances_) {
        std::string price;
        util::appendDouble(&price, instance.hourlyUsd, 6);
        writer.writeRow({instance.name, hw::gpuModelName(instance.gpu),
                         std::to_string(instance.numGpus), price});
    }
}

void
InstanceCatalog::saveCbf(std::ostream &out) const
{
    io::CbfBuilder builder;
    builder.addBytes("schema", "ceer.catalog.v1");
    std::vector<std::string> names, gpus;
    std::vector<std::int64_t> num_gpus;
    std::vector<double> prices;
    for (const auto &instance : instances_) {
        names.push_back(instance.name);
        gpus.push_back(hw::gpuModelName(instance.gpu));
        num_gpus.push_back(instance.numGpus);
        prices.push_back(instance.hourlyUsd);
    }
    io::addStringColumn(&builder, "cat.name", names);
    io::addStringColumn(&builder, "cat.gpu", gpus);
    builder.addI64("cat.gpus", num_gpus);
    builder.addF64("cat.hourly_usd", prices);
    builder.write(out);
}

bool
InstanceCatalog::tryLoadCbf(const io::CbfFile &file,
                            InstanceCatalog *catalog, std::string *error)
{
    if (!io::checkSchema(file, "ceer.catalog.v1", "a catalog", error))
        return false;
    io::RowGroup cat(file, error);
    std::vector<std::string> names = cat.str("cat.name");
    const std::vector<std::string> gpus = cat.str("cat.gpu");
    const std::int64_t *num_gpus = cat.i64("cat.gpus");
    const double *prices = cat.f64("cat.hourly_usd");
    if (!cat.ok())
        return false;
    InstanceCatalog parsed;
    for (std::size_t i = 0; i < cat.rows(); ++i) {
        if (!addInstance(i, std::move(names[i]), gpus[i], num_gpus[i],
                         prices[i], &parsed, error))
            return false;
    }
    *catalog = std::move(parsed);
    return true;
}

bool
InstanceCatalog::tryLoadFile(const std::string &path,
                             InstanceCatalog *catalog, std::string *error)
{
    return io::tryLoadFile(path, catalog, &tryLoadCbf, &tryFromCsv,
                           error);
}

InstanceCatalog
InstanceCatalog::fromFile(const std::string &path)
{
    InstanceCatalog catalog;
    std::string error;
    if (!tryLoadFile(path, &catalog, &error))
        util::fatal("InstanceCatalog::fromFile: " + error);
    return catalog;
}

InstanceCatalog
InstanceCatalog::syntheticFleet(std::size_t count, std::uint64_t seed)
{
    // Per-GPU hourly price anchors, as in marketPriced().
    const std::map<GpuModel, double> per_gpu = {
        {GpuModel::V100, 3.06},
        {GpuModel::T4, 0.95},
        {GpuModel::M60, 0.55},
        {GpuModel::K80, 0.15},
    };
    util::Rng rng(util::hashMix(seed, std::string("ceer-fleet")));
    const auto &silicons = hw::allGpuModels();
    InstanceCatalog catalog;
    for (std::size_t i = 0; i < count; ++i) {
        GpuInstance instance;
        instance.gpu = silicons[rng.uniformInt(silicons.size())];
        instance.numGpus = 1 + static_cast<int>(rng.uniformInt(8));
        const double raw = per_gpu.at(instance.gpu) *
                           instance.numGpus * rng.uniform(0.7, 1.3);
        // Canonicalize through the CSV %.6g price dialect so CSV and
        // CBF serializations of a fleet convert byte-exactly.
        std::string price;
        util::appendDouble(&price, raw, 6);
        instance.hourlyUsd = util::parseDouble(price).value;
        instance.name = util::format(
            "fleet-%s-%dgpu-%06zu",
            hw::gpuFamilyName(instance.gpu).c_str(), instance.numGpus,
            i);
        catalog.add(std::move(instance));
    }
    return catalog;
}

const GpuInstance &
InstanceCatalog::find(const std::string &name) const
{
    for (const auto &instance : instances_)
        if (instance.name == name)
            return instance;
    util::fatal("InstanceCatalog: no instance named '" + name + "'");
}

const GpuInstance &
InstanceCatalog::find(hw::GpuModel gpu, int num_gpus) const
{
    for (const auto &instance : instances_)
        if (instance.gpu == gpu && instance.numGpus == num_gpus)
            return instance;
    util::fatal(util::format("InstanceCatalog: no %d-GPU %s instance",
                             num_gpus, hw::gpuModelName(gpu).c_str()));
}

std::vector<GpuInstance>
InstanceCatalog::forGpu(hw::GpuModel gpu) const
{
    std::vector<GpuInstance> out;
    for (const auto &instance : instances_)
        if (instance.gpu == gpu)
            out.push_back(instance);
    std::sort(out.begin(), out.end(),
              [](const GpuInstance &a, const GpuInstance &b) {
                  return a.numGpus < b.numGpus;
              });
    return out;
}

std::vector<GpuInstance>
InstanceCatalog::withinHourlyBudget(double hourly_budget) const
{
    std::vector<GpuInstance> out;
    for (const auto &instance : instances_)
        if (instance.hourlyUsd <= hourly_budget)
            out.push_back(instance);
    return out;
}

std::vector<GpuInstance>
InstanceCatalog::largestPerFamilyWithin(double hourly_budget,
                                        double tolerance) const
{
    std::vector<GpuInstance> out;
    for (GpuModel gpu : hw::allGpuModels()) {
        const GpuInstance *best = nullptr;
        for (const auto &instance : instances_) {
            if (instance.gpu != gpu ||
                instance.hourlyUsd > hourly_budget + tolerance) {
                continue;
            }
            if (!best || instance.numGpus > best->numGpus)
                best = &instance;
        }
        if (best)
            out.push_back(*best);
    }
    return out;
}

} // namespace cloud
} // namespace ceer
