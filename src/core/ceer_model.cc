#include "core/ceer_model.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "core/regression.h"
#include "io/cbf.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/strings.h"

namespace ceer {
namespace core {

using graph::OpType;
using hw::GpuModel;

double
OpTimeModel::predictUs(const std::vector<double> &features) const
{
    double predicted;
    if (usable) {
        predicted = quadratic ? model.predict(quadraticExpand(features))
                              : model.predict(features);
    } else {
        predicted = medianUs;
    }
    // Regressions can dip below zero for tiny inputs outside the
    // training range; kernels cannot beat launch overhead.
    return std::max(predicted, 1.0);
}

double
CommModel::overheadUs(GpuModel gpu, int num_gpus,
                      double param_count) const
{
    if (num_gpus < 1)
        util::panic("CommModel::overheadUs: num_gpus must be >= 1");
    const auto it = fits.find(gpu);
    if (it == fits.end() || it->second.empty() || !it->second[0].valid)
        util::panic("CommModel::overheadUs: no fit for GPU " +
                    hw::gpuModelName(gpu));
    const auto &per_k = it->second;
    // One feature, passed by pointer: no vector per call.
    const double x[1] = {param_count};

    double total = per_k[0].model.predict(x, 1);
    if (num_gpus == 1)
        return std::max(total, 0.0);

    const std::size_t idx = static_cast<std::size_t>(num_gpus) - 1;
    if (idx < per_k.size() && per_k[idx].valid)
        return std::max(total + per_k[idx].model.predict(x, 1), 0.0);

    // Extrapolate D_k linearly in k from the last two trained widths.
    std::size_t last = per_k.size();
    while (last > 1 && !per_k[last - 1].valid)
        --last;
    if (last < 2)
        util::panic("CommModel::overheadUs: no multi-GPU fits for " +
                    hw::gpuModelName(gpu));
    const double d_last = per_k[last - 1].model.predict(x, 1);
    const double d_prev =
        last >= 3 && per_k[last - 2].valid
            ? per_k[last - 2].model.predict(x, 1)
            : 0.0;
    const double slope = d_last - d_prev;
    const double extra = static_cast<double>(num_gpus) -
                         static_cast<double>(last);
    return std::max(total + d_last + slope * extra, 0.0);
}

OpClass
CeerModel::classify(OpType op) const
{
    if (graph::opTypeInfo(op).device == graph::Device::Cpu)
        return OpClass::Cpu;
    return heavyOps.count(op) ? OpClass::Heavy : OpClass::Light;
}

const OpTimeModel *
CeerModel::opModel(GpuModel gpu, OpType op) const
{
    const auto it = opModels.find({gpu, op});
    return it == opModels.end() ? nullptr : &it->second;
}

std::pair<double, double>
CeerModel::opModelR2Range() const
{
    double lo = 1.0, hi = 0.0;
    bool any = false;
    for (const auto &[key, model] : opModels) {
        if (!model.usable)
            continue;
        lo = std::min(lo, model.r2);
        hi = std::max(hi, model.r2);
        any = true;
    }
    if (!any)
        return {0.0, 0.0};
    return {lo, hi};
}

namespace {

/// Widest data-parallel group a comm fit may describe, in both
/// dialects; k sizes the per-GPU fit table, so it is bounded first.
constexpr std::uint64_t kMaxCommK = 1024;

/**
 * The one row check for an op_model record, shared by the text and
 * CBF decoders: a known GPU and op and a well-formed fit. Adds
 * @p entry (its plain fields already decoded) to @p model.
 */
bool
addOpModel(const std::string &gpu, const std::string &op,
           const std::string &fit, OpTimeModel entry, CeerModel *model,
           std::string *error)
{
    if (!hw::gpuModelFromName(gpu, entry.gpu)) {
        *error = "bad op_model GPU '" + gpu + "'";
        return false;
    }
    if (!graph::opTypeFromName(op, entry.op)) {
        *error = "bad op_model op '" + op + "'";
        return false;
    }
    std::string fit_error;
    if (!LinearModel::tryDeserialize(fit, &entry.model, &fit_error)) {
        *error = "op_model fit: " + fit_error;
        return false;
    }
    model->opModels.emplace(std::make_pair(entry.gpu, entry.op),
                            std::move(entry));
    return true;
}

/**
 * The one row check for a comm_fit record, shared by the text and CBF
 * decoders: a known GPU, k in [1, kMaxCommK] (checked before k sizes
 * the per-k table) and a well-formed fit. Adds the fit to @p model.
 */
bool
addCommFit(const std::string &gpu_name, std::uint64_t k, double r2,
           const std::string &fit, CeerModel *model, std::string *error)
{
    GpuModel gpu;
    if (!hw::gpuModelFromName(gpu_name, gpu)) {
        *error = "bad comm_fit GPU '" + gpu_name + "'";
        return false;
    }
    if (k < 1 || k > kMaxCommK) {
        *error = util::format("comm_fit k must be in [1, %llu], got %llu",
                              static_cast<unsigned long long>(kMaxCommK),
                              static_cast<unsigned long long>(k));
        return false;
    }
    CommModel::Fit parsed;
    std::string fit_error;
    if (!LinearModel::tryDeserialize(fit, &parsed.model, &fit_error)) {
        *error = "comm_fit: " + fit_error;
        return false;
    }
    parsed.r2 = r2;
    parsed.valid = true;
    auto &per_k = model->comm.fits[gpu];
    if (per_k.size() < k)
        per_k.resize(k);
    per_k[k - 1] = std::move(parsed);
    return true;
}

} // namespace

void
CeerModel::save(std::ostream &out) const
{
    const auto f17 = [](double value) {
        std::string text;
        util::appendDouble(&text, value, 17);
        return text;
    };
    out << "ceer_model v1\n";
    out << "heavy_threshold_us " << f17(heavyThresholdUs) << "\n";
    out << "light_median_us " << f17(lightMedianUs) << "\n";
    out << "cpu_median_us " << f17(cpuMedianUs) << "\n";
    out << "heavy_ops";
    for (OpType op : heavyOps)
        out << " " << graph::opTypeName(op);
    out << "\n";
    for (const auto &[key, model] : opModels) {
        out << "op_model " << hw::gpuModelName(key.first) << " "
            << graph::opTypeName(key.second) << " "
            << (model.quadratic ? 1 : 0) << " " << (model.usable ? 1 : 0)
            << " " << f17(model.r2) << " " << f17(model.medianUs) << " "
            << model.points << " " << model.model.serialize() << "\n";
    }
    for (const auto &[gpu, per_k] : comm.fits) {
        for (std::size_t i = 0; i < per_k.size(); ++i) {
            if (!per_k[i].valid)
                continue;
            out << "comm_fit " << hw::gpuModelName(gpu) << " " << (i + 1)
                << " " << f17(per_k[i].r2) << " "
                << per_k[i].model.serialize() << "\n";
        }
    }
}

CeerModel
CeerModel::load(std::istream &in)
{
    CeerModel model;
    std::string error;
    if (!tryLoad(in, &model, &error))
        util::fatal("CeerModel::load: " + error);
    return model;
}

bool
CeerModel::tryLoad(std::istream &in, CeerModel *model,
                   std::string *error)
{
    CeerModel parsed;
    std::string line;
    std::size_t line_no = 1;
    if (!std::getline(in, line) ||
        !util::startsWith(line, "ceer_model")) {
        *error = "missing header";
        return false;
    }
    // All failure paths funnel through fail()/failField() so every
    // message carries the offending line number.
    const auto fail = [&](const std::string &what) {
        *error = util::format("line %zu: ", line_no) + what;
        return false;
    };
    const auto parse_double = [&](const std::string &field,
                                  const char *what, double *out) {
        const auto result = util::parseDouble(field);
        if (!result) {
            *error = util::format("line %zu: bad %s '%s': %s", line_no,
                                  what, field.c_str(), result.error);
            return false;
        }
        *out = result.value;
        return true;
    };
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        const auto fields = util::split(line, ' ');
        const std::string &tag = fields[0];
        const auto require = [&](std::size_t count) {
            if (fields.size() >= count)
                return true;
            *error = util::format(
                "line %zu: truncated '%s' line (%zu of %zu fields)",
                line_no, tag.c_str(), fields.size(), count);
            return false;
        };
        if (tag == "heavy_threshold_us") {
            if (!require(2) ||
                !parse_double(fields[1], "threshold",
                              &parsed.heavyThresholdUs))
                return false;
        } else if (tag == "light_median_us") {
            if (!require(2) ||
                !parse_double(fields[1], "median",
                              &parsed.lightMedianUs))
                return false;
        } else if (tag == "cpu_median_us") {
            if (!require(2) ||
                !parse_double(fields[1], "median", &parsed.cpuMedianUs))
                return false;
        } else if (tag == "heavy_ops") {
            for (std::size_t i = 1; i < fields.size(); ++i) {
                OpType op;
                if (!graph::opTypeFromName(fields[i], op))
                    return fail("bad op " + fields[i]);
                parsed.heavyOps.insert(op);
            }
        } else if (tag == "op_model") {
            if (!require(9))
                return false;
            OpTimeModel entry;
            entry.quadratic = fields[3] == "1";
            entry.usable = fields[4] == "1";
            if (!parse_double(fields[5], "r2", &entry.r2) ||
                !parse_double(fields[6], "median", &entry.medianUs))
                return false;
            const auto points = util::parseSize(fields[7]);
            if (!points)
                return fail("bad op_model points '" + fields[7] +
                            "': " + points.error);
            entry.points = points.value;
            std::string row_error;
            if (!addOpModel(fields[1], fields[2], fields[8],
                            std::move(entry), &parsed, &row_error))
                return fail(row_error);
        } else if (tag == "comm_fit") {
            if (!require(5))
                return false;
            const auto k = util::parseSize(fields[2]);
            if (!k)
                return fail("bad comm_fit k '" + fields[2] + "': " +
                            k.error);
            double r2 = 0.0;
            if (!parse_double(fields[3], "r2", &r2))
                return false;
            std::string row_error;
            if (!addCommFit(fields[1], k.value, r2, fields[4], &parsed,
                            &row_error))
                return fail(row_error);
        } else {
            return fail("unknown tag '" + tag + "'");
        }
    }
    *model = std::move(parsed);
    return true;
}

void
CeerModel::saveCbf(std::ostream &out) const
{
    io::CbfBuilder builder;
    builder.addBytes("schema", "ceer.model.v1");
    builder.addF64("scalar.heavy_threshold_us", {heavyThresholdUs});
    builder.addF64("scalar.light_median_us", {lightMedianUs});
    builder.addF64("scalar.cpu_median_us", {cpuMedianUs});

    std::vector<std::string> heavy;
    for (OpType op : heavyOps)
        heavy.push_back(graph::opTypeName(op));
    io::addStringColumn(&builder, "heavy_ops", heavy);

    // Map iteration order (sorted by key) matches save()'s line order.
    std::vector<std::string> om_gpu, om_op, om_fit;
    std::vector<std::uint8_t> om_quadratic, om_usable;
    std::vector<double> om_r2, om_median;
    std::vector<std::uint64_t> om_points;
    for (const auto &[key, entry] : opModels) {
        om_gpu.push_back(hw::gpuModelName(key.first));
        om_op.push_back(graph::opTypeName(key.second));
        om_quadratic.push_back(entry.quadratic ? 1 : 0);
        om_usable.push_back(entry.usable ? 1 : 0);
        om_r2.push_back(entry.r2);
        om_median.push_back(entry.medianUs);
        om_points.push_back(entry.points);
        om_fit.push_back(entry.model.serialize());
    }
    io::addStringColumn(&builder, "om.gpu", om_gpu);
    io::addStringColumn(&builder, "om.op", om_op);
    builder.addU8("om.quadratic", om_quadratic);
    builder.addU8("om.usable", om_usable);
    builder.addF64("om.r2", om_r2);
    builder.addF64("om.median_us", om_median);
    builder.addU64("om.points", om_points);
    io::addStringColumn(&builder, "om.fit", om_fit);

    // Only valid fits are stored, k is 1-based — same as save().
    std::vector<std::string> cf_gpu, cf_fit;
    std::vector<std::uint64_t> cf_k;
    std::vector<double> cf_r2;
    for (const auto &[gpu, per_k] : comm.fits) {
        for (std::size_t i = 0; i < per_k.size(); ++i) {
            if (!per_k[i].valid)
                continue;
            cf_gpu.push_back(hw::gpuModelName(gpu));
            cf_k.push_back(i + 1);
            cf_r2.push_back(per_k[i].r2);
            cf_fit.push_back(per_k[i].model.serialize());
        }
    }
    io::addStringColumn(&builder, "cf.gpu", cf_gpu);
    builder.addU64("cf.k", cf_k);
    builder.addF64("cf.r2", cf_r2);
    io::addStringColumn(&builder, "cf.fit", cf_fit);

    builder.write(out);
}

bool
CeerModel::tryLoadCbf(const io::CbfFile &file, CeerModel *model,
                      std::string *error)
{
    if (!io::checkSchema(file, "ceer.model.v1", "a model", error))
        return false;

    // The three scalars form one single-row group.
    io::RowGroup scalar(file, error);
    const double *threshold = scalar.f64("scalar.heavy_threshold_us");
    const double *light = scalar.f64("scalar.light_median_us");
    const double *cpu = scalar.f64("scalar.cpu_median_us");
    if (!scalar.ok())
        return false;
    if (scalar.rows() != 1) {
        *error = util::format(
            "column 'scalar.heavy_threshold_us' has %zu values, "
            "expected 1", scalar.rows());
        return false;
    }
    CeerModel parsed;
    parsed.heavyThresholdUs = threshold[0];
    parsed.lightMedianUs = light[0];
    parsed.cpuMedianUs = cpu[0];

    std::vector<std::string> heavy;
    if (!io::readStringColumn(file, "heavy_ops", &heavy, error))
        return false;
    for (std::size_t i = 0; i < heavy.size(); ++i) {
        OpType op;
        if (!graph::opTypeFromName(heavy[i], op)) {
            *error = util::format("heavy_ops row %zu: bad op '%s'", i,
                                  heavy[i].c_str());
            return false;
        }
        parsed.heavyOps.insert(op);
    }

    io::RowGroup om(file, error);
    const std::vector<std::string> om_gpu = om.str("om.gpu");
    const std::vector<std::string> om_op = om.str("om.op");
    const std::vector<std::string> om_fit = om.str("om.fit");
    const std::uint8_t *om_quadratic = om.u8("om.quadratic");
    const std::uint8_t *om_usable = om.u8("om.usable");
    const double *om_r2 = om.f64("om.r2");
    const double *om_median = om.f64("om.median_us");
    const std::uint64_t *om_points = om.u64("om.points");
    if (!om.ok())
        return false;
    for (std::size_t i = 0; i < om.rows(); ++i) {
        OpTimeModel entry;
        entry.quadratic = om_quadratic[i] != 0;
        entry.usable = om_usable[i] != 0;
        entry.r2 = om_r2[i];
        entry.medianUs = om_median[i];
        entry.points = om_points[i];
        if (!addOpModel(om_gpu[i], om_op[i], om_fit[i], std::move(entry),
                        &parsed, error)) {
            *error = util::format("om row %zu: ", i) + *error;
            return false;
        }
    }

    io::RowGroup cf(file, error);
    const std::vector<std::string> cf_gpu = cf.str("cf.gpu");
    const std::vector<std::string> cf_fit = cf.str("cf.fit");
    const std::uint64_t *cf_k = cf.u64("cf.k");
    const double *cf_r2 = cf.f64("cf.r2");
    if (!cf.ok())
        return false;
    for (std::size_t i = 0; i < cf.rows(); ++i) {
        if (!addCommFit(cf_gpu[i], cf_k[i], cf_r2[i], cf_fit[i], &parsed,
                        error)) {
            *error = util::format("cf row %zu: ", i) + *error;
            return false;
        }
    }

    *model = std::move(parsed);
    return true;
}

bool
CeerModel::tryLoadFile(const std::string &path, CeerModel *model,
                       std::string *error)
{
    return io::tryLoadFile(path, model, &tryLoadCbf, &tryLoad, error);
}

CeerModel
CeerModel::loadFile(const std::string &path)
{
    CeerModel model;
    std::string error;
    if (!tryLoadFile(path, &model, &error))
        util::fatal("CeerModel::loadFile: " + error);
    return model;
}

} // namespace core
} // namespace ceer
