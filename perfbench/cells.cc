#include "cells.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "graph/degree.h"
#include "graph/permutation.h"
#include "graph/storage/varint.h"
#include "kernels/kernel.h"
#include "metrics/miss_rate.h"
#include "reorder/registry.h"

namespace perfbench
{

namespace
{

using gral::GraphView;
using Clock = std::chrono::steady_clock;

/** PageRank runs 20 sweeps at tolerance 1e-8; on these graphs the
 *  final L1 delta after 20 sweeps sits near 1e-5. A delta above this
 *  bound means the iteration diverged or the relabeled graph lost
 *  edges. */
constexpr double kPageRankDeltaBound = 1e-3;
/** Relabeling permutes the rank vector, so the final delta agrees
 *  across RAs up to floating-point summation order. */
constexpr double kPageRankDeltaAgreement = 1e-6;

/** Golden simulated counters of a Bl cell at seed 0. */
struct Golden
{
    const char *workload;
    const char *kernel;
    std::uint64_t accesses;
    std::uint64_t misses;
    std::uint64_t dtlbMisses;
    std::uint64_t pushHubMisses;
    std::uint64_t pullHubMisses;
};

/** Regenerate with `cell_bench --seed 0 ...`: the report's "cells"
 *  list carries these counters for every cell. */
constexpr Golden kGoldens[] = {
    {"reorder-sn", "spmv", 5568612, 1999907, 1351886, 0, 19908},
    {"replay-wg", "pagerank", 89021240, 18633624, 10500606, 0, 0},
    {"push-pull-wg", "bfs", 1146048, 201583, 54302, 212, 0},
    {"push-pull-wg", "cc", 15681823, 2656397, 1441835, 30321, 0},
};

/** Golden ECS counters of replay-wg at seed 0. */
constexpr std::uint64_t kGoldenEcsAccesses = 4451062;
constexpr std::uint64_t kGoldenEcsMisses = 928760;
constexpr std::uint64_t kGoldenEcsScans = 16;

template <typename T>
std::string
mismatch(const std::string &what, T expected, T actual)
{
    std::ostringstream out;
    out << what << ": expected " << expected << ", got " << actual;
    return out.str();
}

void
fillSimulated(CellOutcome &cell, const gral::MissProfileResult &profile)
{
    cell.accesses = profile.totalAccesses;
    cell.cacheHits = profile.cache.hits;
    cell.cacheMisses = profile.cache.misses;
    cell.dtlbHits = profile.tlb.hits;
    cell.dtlbMisses = profile.tlb.misses;
    cell.dataAccesses = profile.dataAccesses;
    cell.dataMisses = profile.dataMisses;
    cell.pushDataAccesses = profile.pushPhase.dataAccesses;
    cell.pushDataMisses = profile.pushPhase.dataMisses;
    cell.pullDataAccesses = profile.pullPhase.dataAccesses;
    cell.pullDataMisses = profile.pullPhase.dataMisses;
    cell.pushHubMisses = profile.pushPhase.hubMisses;
    cell.pullHubMisses = profile.pullPhase.hubMisses;
}

/** runRaExperiment's compression metric, from the public codec. */
double
compressedBytesPerEdge(const GraphView &graph)
{
    if (graph.numEdges() == 0)
        return 0.0;
    std::size_t bytes = gral::compressAdjacency(graph.out()).blob.size() +
                        gral::compressAdjacency(graph.in()).blob.size();
    return static_cast<double>(bytes) /
           (2.0 * static_cast<double>(graph.numEdges()));
}

} // namespace

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> specs = {
        {"reorder-sn", "twtr-s", {"spmv"}, {"Bl", "SB", "GO", "RO"},
         false},
        {"replay-wg", "ukdls-s", {"pagerank"}, {"Bl", "DBG"}, true},
        {"push-pull-wg", "sk-s", {"bfs", "cc"}, {"Bl", "DBG", "RO"},
         false},
    };
    return specs;
}

const WorkloadSpec &
workload(const std::string &name)
{
    for (const WorkloadSpec &spec : workloads())
        if (spec.name == name)
            return spec;
    throw std::invalid_argument("unknown workload: " + name);
}

gral::DatasetSpec
datasetFor(const WorkloadSpec &spec, std::uint64_t seed)
{
    gral::DatasetSpec dataset = gral::datasetSpec(spec.dataset);
    dataset.seed += seed;
    return dataset;
}

gral::ExperimentOptions
experimentOptions(const std::string &kernel)
{
    gral::ExperimentOptions options;
    options.kernel = kernel;
    options.parallel.numThreads = 4;
    options.trace.numThreads = 8;
    options.sim.cache.sizeBytes = 128 * 1024;
    options.sim.cache.associativity = 8;
    options.sim.cache.lineBytes = 64;
    options.sim.cache.policy = gral::ReplacementPolicy::DRRIP;
    options.sim.tlb.entries = 64;
    options.sim.tlb.associativity = 4;
    options.sim.tlb.pageBytes = 4096;
    options.sim.chunkSize = 1024;
    options.timingRepeats = 3;
    return options;
}

gral::EcsOptions
ecsOptions()
{
    gral::EcsOptions options;
    options.cache = experimentOptions("spmv").sim.cache;
    options.scanEvery = 1 << 18;
    return options;
}

FillStats &
FillStats::operator+=(const FillStats &other)
{
    seconds += other.seconds;
    calls += other.calls;
    accesses += other.accesses;
    return *this;
}

TimedProducer::TimedProducer(std::unique_ptr<gral::AccessProducer> inner,
                             FillStats &stats)
    : inner_(std::move(inner)), stats_(stats)
{
}

std::size_t
TimedProducer::fill(std::span<gral::MemoryAccess> out)
{
    Clock::time_point start = Clock::now();
    std::size_t n = inner_->fill(out);
    stats_.seconds +=
        std::chrono::duration<double>(Clock::now() - start).count();
    ++stats_.calls;
    stats_.accesses += n;
    return n;
}

gral::ProducerSet
timeFills(gral::ProducerSet producers, FillStats &stats)
{
    gral::ProducerSet timed;
    timed.reserve(producers.size());
    for (std::unique_ptr<gral::AccessProducer> &producer : producers)
        timed.push_back(
            std::make_unique<TimedProducer>(std::move(producer), stats));
    return timed;
}

double
CellOutcome::dataMissRate() const
{
    return dataAccesses == 0 ? 0.0
                             : static_cast<double>(dataMisses) /
                                   static_cast<double>(dataAccesses);
}

double
kernelEdgeWork(const std::string &kernel, const GraphView &graph,
               unsigned iterations)
{
    double edges = static_cast<double>(graph.numEdges());
    if (kernel == "bfs")
        return edges;
    if (kernel == "cc")
        return 2.0 * edges * iterations;
    return edges * iterations;
}

CellOutcome
runCell(const GraphView &base, const std::string &kernel,
        const std::string &ra)
{
    gral::RaExperimentResult result =
        gral::runRaExperiment(base, ra, experimentOptions(kernel));
    CellOutcome cell;
    cell.kernel = kernel;
    cell.ra = ra;
    cell.relabeled = result.relabeled;
    cell.reorderSeconds = result.reorderStats.preprocessSeconds;
    cell.iterations = result.kernelRun.iterations;
    cell.checksum = result.kernelRun.checksum;
    cell.timeMs = result.traversalMs;
    cell.edgeWork = kernelEdgeWork(kernel, base, cell.iterations);
    cell.idlePercent = result.idlePercent;
    cell.steals = result.traversal.steals;
    cell.compBytesPerEdge = result.compressedBytesPerEdge;
    fillSimulated(cell, result.profile);
    return cell;
}

CellOutcome
runTracedCell(const GraphView &base, const std::string &kernel_name,
              const std::string &ra, SpanTrace &trace,
              std::int32_t cell_id, FillStats &fills)
{
    SpanTrace::Scope cell_span(trace, "analysis.cell", cell_id);
    const gral::ExperimentOptions options = experimentOptions(kernel_name);
    CellOutcome cell;
    cell.kernel = kernel_name;
    cell.ra = ra;

    gral::KernelPtr kernel = gral::makeKernel(kernel_name);
    {
        SpanTrace::Scope span(trace, "kernels.should_relabel", cell_id);
        cell.relabeled = kernel->shouldRelabel(base);
    }
    gral::ReordererPtr reorderer = gral::makeReorderer(ra);
    gral::Permutation permutation;
    {
        SpanTrace::Scope span(trace, "reorder." + ra, cell_id);
        permutation = reorderer->reorder(base);
    }
    cell.reorderSeconds = reorderer->stats().preprocessSeconds;
    gral::Graph relabeled;
    if (cell.relabeled) {
        SpanTrace::Scope span(trace, "graph.relabel", cell_id);
        relabeled = gral::applyPermutation(base, permutation);
    }
    const GraphView graph = cell.relabeled ? GraphView(relabeled) : base;

    {
        SpanTrace::Scope span(trace, "metrics.compress", cell_id);
        cell.compBytesPerEdge = compressedBytesPerEdge(graph);
    }
    if (kernel_name == "spmv") {
        SpanTrace::Scope span(trace, "exec.spmv_time", cell_id);
        gral::ParallelResult detail;
        cell.timeMs = gral::timePullSpmv(graph, options.parallel,
                                         options.timingRepeats,
                                         &cell.idlePercent, &detail);
        cell.steals = detail.steals;
    } else {
        SpanTrace::Scope span(trace, "kernels.time", cell_id);
        cell.timeMs =
            gral::timeKernelRun(*kernel, graph, options.timingRepeats);
    }
    gral::KernelRunInfo run;
    {
        SpanTrace::Scope span(trace, "kernels.run", cell_id);
        run = kernel->run(graph);
    }
    cell.iterations = run.iterations;
    cell.checksum = run.checksum;
    cell.edgeWork = kernelEdgeWork(kernel_name, graph, run.iterations);

    std::vector<gral::EdgeId> owner_degrees;
    std::vector<gral::EdgeId> accessed_degrees;
    {
        SpanTrace::Scope span(trace, "graph.degrees", cell_id);
        owner_degrees = gral::degrees(graph, gral::Direction::In);
        accessed_degrees = gral::degrees(graph, gral::Direction::Out);
    }
    gral::SimulationOptions sim = options.sim;
    sim.hubDegreeThreshold =
        static_cast<gral::EdgeId>(gral::hubThreshold(graph));
    sim.pushHubDegrees = owner_degrees;
    sim.pullHubDegrees = accessed_degrees;

    gral::ProducerSet producers;
    {
        SpanTrace::Scope span(trace, "kernels.make_producers", cell_id);
        producers = kernel->makeProducers(graph, options.trace);
    }
    {
        SpanTrace::Scope span(trace, "cachesim.simulate", cell_id);
        FillStats cell_fills;
        gral::MissProfileResult profile = gral::simulateMissProfile(
            timeFills(std::move(producers), cell_fills), owner_degrees,
            accessed_degrees, sim);
        trace.addAggregate(span.id(), "kernels.fill", cell_fills.seconds,
                           cell_fills.calls);
        fills += cell_fills;
        fillSimulated(cell, profile);
    }
    return cell;
}

EcsOutcome
runEcs(const GraphView &base, SpanTrace *trace, std::int32_t cell_id,
       FillStats *fills)
{
    const gral::ExperimentOptions options = experimentOptions("spmv");
    gral::KernelPtr kernel = gral::makeKernel("spmv");
    gral::EcsResult result;
    if (trace == nullptr) {
        result = gral::effectiveCacheSize(
            kernel->makeProducers(base, options.trace),
            options.trace.map, ecsOptions());
    } else {
        SpanTrace::Scope cell_span(*trace, "analysis.cell", cell_id);
        gral::ProducerSet producers;
        {
            SpanTrace::Scope span(*trace, "kernels.make_producers",
                                  cell_id);
            producers = kernel->makeProducers(base, options.trace);
        }
        SpanTrace::Scope span(*trace, "metrics.ecs", cell_id);
        FillStats ecs_fills;
        result = gral::effectiveCacheSize(
            timeFills(std::move(producers), ecs_fills), options.trace.map,
            ecsOptions());
        trace->addAggregate(span.id(), "kernels.fill", ecs_fills.seconds,
                            ecs_fills.calls);
        *fills += ecs_fills;
    }
    EcsOutcome ecs;
    ecs.ecsPercent = result.avgEcsPercent;
    ecs.scans = result.scans;
    ecs.accesses = result.totalAccesses;
    ecs.cacheHits = result.cache.hits;
    ecs.cacheMisses = result.cache.misses;
    return ecs;
}

void
checkSweep(const WorkloadSpec &spec, std::uint64_t seed,
           const GraphView &base, std::vector<CellOutcome> &cells,
           EcsOutcome *ecs)
{
    const double edges = static_cast<double>(base.numEdges());
    const double vertices = static_cast<double>(base.numVertices());
    const CellOutcome *first_of_kernel = nullptr;
    for (CellOutcome &cell : cells) {
        std::vector<std::string> &fail = cell.failures;
        if (first_of_kernel == nullptr ||
            first_of_kernel->kernel != cell.kernel)
            first_of_kernel = &cell;

        if (cell.cacheHits + cell.cacheMisses != cell.accesses)
            fail.push_back(mismatch("cache hits + misses",
                                    cell.accesses,
                                    cell.cacheHits + cell.cacheMisses));
        if (cell.dtlbHits + cell.dtlbMisses != cell.accesses)
            fail.push_back(mismatch("dtlb hits + misses", cell.accesses,
                                    cell.dtlbHits + cell.dtlbMisses));
        if (cell.accesses == 0)
            fail.push_back("no accesses simulated");

        if (cell.kernel == "spmv" && cell.checksum != edges)
            fail.push_back(mismatch("spmv checksum", edges, cell.checksum));
        if (cell.kernel == "pagerank" &&
            !(cell.checksum >= 0.0 && cell.checksum <= kPageRankDeltaBound))
            fail.push_back(mismatch("pagerank final delta <=",
                                    kPageRankDeltaBound, cell.checksum));
        if (cell.kernel == "pagerank" &&
            std::abs(cell.checksum - first_of_kernel->checksum) >
                kPageRankDeltaAgreement * first_of_kernel->checksum)
            fail.push_back(mismatch("pagerank final delta vs " +
                                        first_of_kernel->ra,
                                    first_of_kernel->checksum,
                                    cell.checksum));
        if (cell.kernel == "bfs" || cell.kernel == "cc") {
            const char *what =
                cell.kernel == "bfs" ? "bfs reached" : "cc components";
            if (!(cell.checksum >= 1.0 && cell.checksum <= vertices))
                fail.push_back(mismatch(std::string(what) + " in [1, |V|]",
                                        vertices, cell.checksum));
            if (cell.checksum != first_of_kernel->checksum)
                fail.push_back(mismatch(std::string(what) + " vs " +
                                            first_of_kernel->ra,
                                        first_of_kernel->checksum,
                                        cell.checksum));
        }

        if (seed != 0 || cell.ra != "Bl")
            continue;
        const Golden *golden = nullptr;
        for (const Golden &g : kGoldens)
            if (spec.name == g.workload && cell.kernel == g.kernel)
                golden = &g;
        if (golden == nullptr) {
            fail.push_back("no golden counters for " + spec.name + "/" +
                           cell.kernel);
            continue;
        }
        if (cell.accesses != golden->accesses)
            fail.push_back(mismatch("golden accesses", golden->accesses,
                                    cell.accesses));
        if (cell.cacheMisses != golden->misses)
            fail.push_back(mismatch("golden misses", golden->misses,
                                    cell.cacheMisses));
        if (cell.dtlbMisses != golden->dtlbMisses)
            fail.push_back(mismatch("golden dtlb misses",
                                    golden->dtlbMisses, cell.dtlbMisses));
        if (cell.pushHubMisses != golden->pushHubMisses)
            fail.push_back(mismatch("golden push hub misses",
                                    golden->pushHubMisses,
                                    cell.pushHubMisses));
        if (cell.pullHubMisses != golden->pullHubMisses)
            fail.push_back(mismatch("golden pull hub misses",
                                    golden->pullHubMisses,
                                    cell.pullHubMisses));
    }

    if (ecs == nullptr)
        return;
    if (ecs->cacheHits + ecs->cacheMisses != ecs->accesses)
        ecs->failures.push_back(mismatch("ecs hits + misses", ecs->accesses,
                                         ecs->cacheHits + ecs->cacheMisses));
    if (!(ecs->ecsPercent > 0.0 && ecs->ecsPercent <= 100.0) ||
        ecs->scans == 0)
        ecs->failures.push_back(mismatch("ecs percent in (0, 100]", 100.0,
                                         ecs->ecsPercent));
    if (seed == 0) {
        if (ecs->accesses != kGoldenEcsAccesses)
            ecs->failures.push_back(mismatch(
                "golden ecs accesses", kGoldenEcsAccesses, ecs->accesses));
        if (ecs->cacheMisses != kGoldenEcsMisses)
            ecs->failures.push_back(mismatch(
                "golden ecs misses", kGoldenEcsMisses, ecs->cacheMisses));
        if (ecs->scans != kGoldenEcsScans)
            ecs->failures.push_back(mismatch("golden ecs scans",
                                             kGoldenEcsScans, ecs->scans));
    }
}

void
checkMirror(const CellOutcome &untraced, CellOutcome &traced)
{
    auto same = [&](const char *what, auto a, auto b) {
        if (a != b)
            traced.failures.push_back(
                mismatch(std::string("traced ") + what + " vs untraced",
                         a, b));
    };
    same("relabeled", untraced.relabeled, traced.relabeled);
    same("checksum", untraced.checksum, traced.checksum);
    same("comp bytes/edge", untraced.compBytesPerEdge,
         traced.compBytesPerEdge);
    same("accesses", untraced.accesses, traced.accesses);
    same("misses", untraced.cacheMisses, traced.cacheMisses);
    same("dtlb misses", untraced.dtlbMisses, traced.dtlbMisses);
    same("push hub misses", untraced.pushHubMisses, traced.pushHubMisses);
    same("pull hub misses", untraced.pullHubMisses, traced.pullHubMisses);
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> metrics = {
        {"sweep_s", "s"},
        {"setup_s", "s"},
        {"peak_rss_mib", "MiB"},
        {"data_miss_rate", "ratio"},
        {"comp_bytes_per_edge", "B/edge"},
        {"error_rate", "ratio"},
    };
    return metrics;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> metrics = {
        {"graph.generate_s", "s"},
        {"graph.relabel_s", "s"},
        {"graph.degrees_s", "s"},
        {"reorder.SB_s", "s"},
        {"reorder.GO_s", "s"},
        {"reorder.RO_s", "s"},
        {"reorder.DBG_s", "s"},
        {"reorder.medges_per_s", "Medge/s"},
        {"kernels.should_relabel_s", "s"},
        {"kernels.time_ms", "ms"},
        {"kernels.medges_per_s", "Medge/s"},
        {"kernels.run_s", "s"},
        {"kernels.make_producers_s", "s"},
        {"kernels.fill_s", "s"},
        {"kernels.fill_ns_per_access", "ns"},
        {"cachesim.replay_s", "s"},
        {"cachesim.ns_per_access", "ns"},
        {"cachesim.accesses", "count"},
        {"cachesim.misses", "count"},
        {"cachesim.dtlb_misses", "count"},
        {"cachesim.push_miss_rate", "ratio"},
        {"cachesim.pull_miss_rate", "ratio"},
        {"metrics.compress_s", "s"},
        {"metrics.ecs_s", "s"},
        {"exec.spmv_time_s", "s"},
        {"exec.idle_percent", "%"},
        {"exec.steals", "count"},
        {"analysis.glue_s", "s"},
        {"analysis.traced_sweep_s", "s"},
        {"analysis.trace_overhead_s", "s"},
    };
    return metrics;
}

bool
validMetricName(const std::string &name)
{
    static const std::regex pattern("[A-Za-z0-9_.-]+");
    return std::regex_match(name, pattern);
}

} // namespace perfbench
