/**
 * @file
 * Experiment-cell benchmark program (see README.md).
 *
 *   cell_bench --workload W --seed N --seconds S --trace 0|1
 *              --report FILE [--spans FILE]
 *
 * Generates the workload's dataset (several times, for setup_s),
 * then repeats sweeps over its cells until S seconds have passed.
 * An untraced sweep puts every cell through gral::runRaExperiment;
 * with --trace 1 each untraced sweep is followed by a traced sweep
 * that records layer spans. Writes one JSON report and exits 1 when
 * any output check failed.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cells.h"
#include "fingerprint.h"
#include "obs/json.h"
#include "obs/perf/rusage.h"
#include "span_trace.h"

using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

/** makeDataset repetitions; setup_s is their median. */
constexpr int kSetupRepeats = 3;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string report;
    std::string spans;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = std::stoi(value) != 0;
        else if (flag == "--report")
            args.report = value;
        else if (flag == "--spans")
            args.spans = value;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (args.workload.empty() || args.report.empty())
        throw std::invalid_argument("--workload and --report are required");
    return args;
}

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** One sweep: every cell, plus the ECS scan where the workload has
 *  one. */
struct Sweep
{
    double wall = 0.0;
    std::vector<CellOutcome> cells;
    bool hasEcs = false;
    EcsOutcome ecs;
    /** Traced sweeps: the cell ids and the fill totals. */
    std::vector<std::int32_t> cellIds;
    FillStats fills;
};

Sweep
runSweep(const WorkloadSpec &spec, std::uint64_t seed,
         const gral::GraphView &base, SpanTrace *trace,
         std::int32_t &next_cell)
{
    Sweep sweep;
    Clock::time_point start = Clock::now();
    for (const std::string &kernel : spec.kernels) {
        for (const std::string &ra : spec.ras) {
            if (trace == nullptr) {
                sweep.cells.push_back(runCell(base, kernel, ra));
            } else {
                sweep.cellIds.push_back(next_cell);
                sweep.cells.push_back(runTracedCell(
                    base, kernel, ra, *trace, next_cell++, sweep.fills));
            }
        }
    }
    if (spec.ecsScan) {
        sweep.hasEcs = true;
        if (trace != nullptr)
            sweep.cellIds.push_back(next_cell);
        sweep.ecs = runEcs(base, trace, next_cell++, &sweep.fills);
    }
    sweep.wall = seconds(start, Clock::now());
    checkSweep(spec, seed, base, sweep.cells,
               sweep.hasEcs ? &sweep.ecs : nullptr);
    return sweep;
}

std::string
cellLabel(const Sweep &sweep, std::size_t index)
{
    if (index < sweep.cells.size())
        return sweep.cells[index].kernel + "/" + sweep.cells[index].ra;
    return "ecs/Bl";
}

/** Per-layer metrics of one traced sweep. */
std::map<std::string, double>
layerMetrics(const Sweep &traced, double untraced_wall,
             const std::vector<Span> &spans,
             const std::vector<double> &self, double edges)
{
    std::map<std::string, double> m;
    for (const MetricDef &def : perLayerMetrics())
        m[def.name] = 0.0;

    std::vector<bool> in_sweep;
    for (std::int32_t id : traced.cellIds) {
        if (in_sweep.size() <= static_cast<std::size_t>(id))
            in_sweep.resize(id + 1, false);
        in_sweep[id] = true;
    }
    std::map<std::string, double> span_self;
    double reorder_edges = 0.0;
    double reorder_seconds = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::int32_t cell = spans[i].cell;
        if (cell == kNone || static_cast<std::size_t>(cell) >=
                                 in_sweep.size() || !in_sweep[cell])
            continue;
        span_self[spans[i].name] += self[i];
        if (spans[i].layer() == "reorder" && spans[i].name != "reorder.Bl") {
            reorder_edges += edges;
            reorder_seconds += self[i];
        }
    }
    for (const char *name :
         {"graph.relabel", "graph.degrees", "reorder.SB", "reorder.GO",
          "reorder.RO", "reorder.DBG", "kernels.should_relabel",
          "kernels.run", "kernels.make_producers", "kernels.fill",
          "metrics.compress", "metrics.ecs", "exec.spmv_time"})
        m[std::string(name) + "_s"] = span_self[name];
    // Timing kernels on the calling thread is real kernel work too.
    m["kernels.run_s"] += span_self["kernels.time"];
    m["cachesim.replay_s"] = span_self["cachesim.simulate"];
    m["analysis.glue_s"] = span_self["analysis.cell"];
    m["reorder.medges_per_s"] = ratio(reorder_edges, reorder_seconds) / 1e6;

    double push_acc = 0.0, push_miss = 0.0, pull_acc = 0.0, pull_miss = 0.0;
    double idle = 0.0;
    int spmv_cells = 0;
    double work = 0.0;
    for (const CellOutcome &cell : traced.cells) {
        m["cachesim.accesses"] += static_cast<double>(cell.accesses);
        m["cachesim.misses"] += static_cast<double>(cell.cacheMisses);
        m["cachesim.dtlb_misses"] += static_cast<double>(cell.dtlbMisses);
        push_acc += static_cast<double>(cell.pushDataAccesses);
        push_miss += static_cast<double>(cell.pushDataMisses);
        pull_acc += static_cast<double>(cell.pullDataAccesses);
        pull_miss += static_cast<double>(cell.pullDataMisses);
        m["kernels.time_ms"] += cell.timeMs;
        work += cell.edgeWork;
        if (cell.kernel == "spmv") {
            idle += cell.idlePercent;
            m["exec.steals"] += static_cast<double>(cell.steals);
            ++spmv_cells;
        }
    }
    m["cachesim.push_miss_rate"] = ratio(push_miss, push_acc);
    m["cachesim.pull_miss_rate"] = ratio(pull_miss, pull_acc);
    m["cachesim.ns_per_access"] =
        ratio(m["cachesim.replay_s"], m["cachesim.accesses"]) * 1e9;
    m["kernels.fill_ns_per_access"] =
        ratio(traced.fills.seconds, static_cast<double>(traced.fills.accesses)) *
        1e9;
    m["kernels.medges_per_s"] = ratio(work, m["kernels.time_ms"] / 1e3) / 1e6;
    m["exec.idle_percent"] = ratio(idle, spmv_cells);
    m["analysis.traced_sweep_s"] = traced.wall;
    m["analysis.trace_overhead_s"] = traced.wall - untraced_wall;
    return m;
}

void
writeMetrics(gral::JsonWriter &json, const std::vector<MetricDef> &defs,
             const std::map<std::string, double> &values)
{
    json.beginObject();
    for (const MetricDef &def : defs) {
        json.key(def.name)
            .beginObject()
            .key("value")
            .value(values.at(def.name))
            .key("unit")
            .value(def.unit)
            .endObject();
    }
    json.endObject();
}

void
writeCell(gral::JsonWriter &json, const CellOutcome &cell)
{
    json.beginObject()
        .key("kernel")
        .value(cell.kernel)
        .key("ra")
        .value(cell.ra)
        .key("relabeled")
        .value(cell.relabeled)
        .key("iterations")
        .value(static_cast<std::uint64_t>(cell.iterations))
        .key("checksum")
        .value(cell.checksum)
        .key("time_ms")
        .value(cell.timeMs)
        .key("reorder_s")
        .value(cell.reorderSeconds)
        .key("comp_bytes_per_edge")
        .value(cell.compBytesPerEdge)
        .key("data_miss_rate")
        .value(cell.dataMissRate())
        .key("accesses")
        .value(cell.accesses)
        .key("misses")
        .value(cell.cacheMisses)
        .key("dtlb_misses")
        .value(cell.dtlbMisses)
        .key("push_hub_misses")
        .value(cell.pushHubMisses)
        .key("pull_hub_misses")
        .value(cell.pullHubMisses)
        .endObject();
}

int
run(const Args &args)
{
    const WorkloadSpec &spec = workload(args.workload);
    const gral::DatasetSpec dataset = datasetFor(spec, args.seed);
    const Fingerprint fp = probeFingerprint();

    SpanTrace trace;
    std::vector<double> setup_times;
    gral::Graph base;
    for (int r = 0; r < kSetupRepeats; ++r) {
        base = gral::Graph(); // free the previous copy first
        Clock::time_point start = Clock::now();
        SpanTrace::Scope span(trace, "graph.generate", kNone);
        base = gral::makeDataset(dataset, 1.0);
        setup_times.push_back(seconds(start, Clock::now()));
    }
    const double edges = static_cast<double>(base.numEdges());
    std::cerr << "[perfbench] " << spec.name << " seed " << args.seed
              << ": " << dataset.id << " |V|=" << base.numVertices()
              << " |E|=" << base.numEdges() << ", setup "
              << median(setup_times) << " s\n";

    // Sweep until the time is up; always finish the sweep in flight.
    std::int32_t next_cell = 0;
    std::vector<Sweep> sweeps;
    std::vector<Sweep> traced;
    Clock::time_point begin = Clock::now();
    do {
        sweeps.push_back(runSweep(spec, args.seed, base, nullptr, next_cell));
        if (args.trace) {
            traced.push_back(
                runSweep(spec, args.seed, base, &trace, next_cell));
            for (std::size_t c = 0; c < traced.back().cells.size(); ++c)
                checkMirror(sweeps.back().cells[c], traced.back().cells[c]);
        }
        std::cerr << "[perfbench] sweep " << sweeps.size() << ": "
                  << sweeps.back().wall << " s"
                  << (args.trace ? " (traced " +
                                       std::to_string(traced.back().wall) +
                                       " s)"
                                 : "")
                  << "\n";
    } while (seconds(begin, Clock::now()) < args.seconds);

    // Span-tree consistency: each cell's layer self times must add up
    // to its wall time.
    const std::vector<double> self = selfTimes(trace.spans());
    const std::vector<Waterfall> falls = cellWaterfalls(trace.spans(), self);
    for (const Waterfall &fall : falls) {
        if (std::abs(fall.total() - fall.wall) <=
            1e-9 * std::max(1.0, fall.wall))
            continue;
        for (Sweep &s : traced)
            for (std::size_t c = 0; c < s.cellIds.size(); ++c)
                if (s.cellIds[c] == fall.cell)
                    (c < s.cells.size() ? s.cells[c].failures
                                        : s.ecs.failures)
                        .push_back("layer self times do not add up to "
                                   "the cell's wall time");
    }

    // Outcomes and failures.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    auto count = [&](const std::vector<std::string> &cell_failures,
                     const std::string &label) {
        ++attempted;
        if (cell_failures.empty())
            return;
        ++failed;
        for (const std::string &f : cell_failures)
            failures.push_back(label + ": " + f);
    };
    for (const std::vector<Sweep> *group : {&sweeps, &traced}) {
        for (const Sweep &s : *group) {
            for (std::size_t c = 0; c < s.cells.size(); ++c)
                count(s.cells[c].failures, cellLabel(s, c));
            if (s.hasEcs)
                count(s.ecs.failures, "ecs/Bl");
        }
    }

    // End-to-end metrics.
    std::map<std::string, double> e2e;
    std::vector<double> walls;
    for (const Sweep &s : sweeps)
        walls.push_back(s.wall);
    e2e["sweep_s"] = median(walls);
    e2e["setup_s"] = median(setup_times);
    e2e["peak_rss_mib"] =
        static_cast<double>(gral::peakRssBytes()) / (1024.0 * 1024.0);
    double miss_rate = 0.0;
    double comp = 0.0;
    const std::vector<CellOutcome> &first = sweeps.front().cells;
    for (const CellOutcome &cell : first) {
        miss_rate += cell.dataMissRate();
        comp += cell.compBytesPerEdge;
    }
    e2e["data_miss_rate"] = ratio(miss_rate, first.size());
    e2e["comp_bytes_per_edge"] = ratio(comp, first.size());
    e2e["error_rate"] =
        ratio(static_cast<double>(failed), static_cast<double>(attempted));

    // Per-layer metrics: median over traced sweeps.
    std::map<std::string, double> layers;
    if (args.trace) {
        std::map<std::string, std::vector<double>> samples;
        for (std::size_t s = 0; s < traced.size(); ++s)
            for (const auto &[name, value] :
                 layerMetrics(traced[s], sweeps[s].wall, trace.spans(),
                              self, edges))
                samples[name].push_back(value);
        for (const auto &[name, values] : samples)
            layers[name] = median(values);
        layers["graph.generate_s"] = median(setup_times);
    }

    gral::JsonWriter json;
    json.beginObject()
        .key("workload")
        .value(spec.name)
        .key("seed")
        .value(args.seed)
        .key("seconds")
        .value(args.seconds)
        .key("trace")
        .value(args.trace)
        .key("dataset")
        .beginObject()
        .key("id")
        .value(dataset.id)
        .key("generator_seed")
        .value(dataset.seed)
        .key("vertices")
        .value(static_cast<std::uint64_t>(base.numVertices()))
        .key("edges")
        .value(static_cast<std::uint64_t>(base.numEdges()))
        .endObject();
    json.key("fingerprint")
        .beginObject()
        .key("cpu_model")
        .value(fp.cpuModel)
        .key("online_cpus")
        .value(static_cast<std::uint64_t>(fp.onlineCpus))
        .key("affinity_cpus")
        .value(static_cast<std::uint64_t>(fp.affinityCpus))
        .key("usable_parallelism")
        .value(fp.usableParallelism)
        .key("compiler")
        .value(fp.compiler)
        .key("build_type")
        .value(fp.buildType)
        .key("dchecks")
        .value(fp.dchecks)
        .endObject();
    json.key("attempted").value(attempted).key("failed").value(failed);
    json.key("failures").beginArray();
    for (const std::string &f : failures)
        json.value(f);
    json.endArray();
    json.key("sweep_s_samples").beginArray();
    for (double w : walls)
        json.value(w);
    json.endArray();
    json.key("setup_s_samples").beginArray();
    for (double t : setup_times)
        json.value(t);
    json.endArray();
    json.key("end_to_end");
    writeMetrics(json, endToEndMetrics(), e2e);
    json.key("per_layer");
    if (args.trace)
        writeMetrics(json, perLayerMetrics(), layers);
    else
        json.valueNull();
    json.key("cells").beginArray();
    for (const CellOutcome &cell : first)
        writeCell(json, cell);
    json.endArray();
    if (sweeps.front().hasEcs) {
        const EcsOutcome &ecs = sweeps.front().ecs;
        json.key("ecs")
            .beginObject()
            .key("ecs_percent")
            .value(ecs.ecsPercent)
            .key("scans")
            .value(ecs.scans)
            .key("accesses")
            .value(ecs.accesses)
            .key("misses")
            .value(ecs.cacheMisses)
            .endObject();
    }
    // Waterfall of the last traced sweep (every traced sweep repeats
    // the same cells).
    json.key("waterfall").beginArray();
    if (!traced.empty()) {
        const Sweep &last = traced.back();
        for (std::size_t c = 0; c < last.cellIds.size(); ++c) {
            for (const Waterfall &fall : falls) {
                if (fall.cell != last.cellIds[c])
                    continue;
                json.beginObject()
                    .key("cell")
                    .value(cellLabel(last, c))
                    .key("wall_s")
                    .value(fall.wall);
                json.key("self_s").beginObject();
                for (const auto &[layer, s] : fall.layerSelf)
                    json.key(layer).value(s);
                json.endObject().endObject();
            }
        }
    }
    json.endArray().endObject();

    std::ofstream(args.report) << json.str() << "\n";
    if (args.trace && !args.spans.empty())
        std::ofstream(args.spans) << spansJson(trace.spans(), self) << "\n";
    for (const std::string &f : failures)
        std::cerr << "[perfbench] check failed: " << f << "\n";
    return failures.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        args = parseArgs(argc, argv);
    } catch (const std::exception &error) {
        std::cerr << "cell_bench: " << error.what()
                  << "\nusage: cell_bench --workload W --seed N "
                     "--seconds S --trace 0|1 --report FILE [--spans FILE]\n";
        return 2;
    }
    try {
        return run(args);
    } catch (const std::exception &error) {
        std::cerr << "cell_bench: " << error.what() << "\n";
        return 2;
    }
}
