/**
 * @file
 * The benchmark's workloads, its two ways of running an experiment
 * cell, and the checks on a cell's outputs.
 *
 * An experiment cell is one (dataset, kernel, RA) point: reorder,
 * relabel, compress, time the real kernel, run it, simulate its
 * access stream through the L3/DTLB model. The untraced path calls
 * the product entry point gral::runRaExperiment. The traced path
 * repeats runRaExperiment's stage order as calls into the public
 * layer functions and records a span around each call, so layer
 * timings come from outside the library.
 */

#ifndef GRAL_PERFBENCH_CELLS_H
#define GRAL_PERFBENCH_CELLS_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/datasets.h"
#include "analysis/experiment.h"
#include "cachesim/access_stream.h"
#include "graph/view.h"
#include "metrics/ecs.h"
#include "span_trace.h"

namespace perfbench
{

/** One benchmark workload. */
struct WorkloadSpec
{
    std::string name;
    /** gral::datasetRegistry() id, generated at scale 1.0. */
    std::string dataset;
    /** Cells are kernels x ras, kernel-major. */
    std::vector<std::string> kernels;
    std::vector<std::string> ras;
    /** Also measure the effective cache size of the Bl SpMV trace. */
    bool ecsScan = false;
};

/** The benchmark's workloads, in README order. */
const std::vector<WorkloadSpec> &workloads();

/** @throws std::invalid_argument for an unknown name. */
const WorkloadSpec &workload(const std::string &name);

/** The workload's dataset spec with its generator seed offset by
 *  @p seed; seed 0 is the registry's own (golden) seed. */
gral::DatasetSpec datasetFor(const WorkloadSpec &spec,
                             std::uint64_t seed);

/** Experiment settings of every cell: the bench-scale L3 (128 KB,
 *  8-way DRRIP) and DTLB (64 x 4 KB), 8 simulated threads, 4 real
 *  threads for the parallel SpMV, best of 3 timed runs. */
gral::ExperimentOptions experimentOptions(const std::string &kernel);

/** ECS settings: the same cache, a scan every 2^18 accesses. */
gral::EcsOptions ecsOptions();

/** Accumulated cost of AccessProducer::fill() calls. */
struct FillStats
{
    double seconds = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t accesses = 0;

    FillStats &operator+=(const FillStats &other);
};

/** Decorator timing every fill() of the producer it wraps; the
 *  stream it passes on is the inner producer's, unchanged. */
class TimedProducer final : public gral::AccessProducer
{
  public:
    TimedProducer(std::unique_ptr<gral::AccessProducer> inner,
                  FillStats &stats);

    std::size_t fill(std::span<gral::MemoryAccess> out) override;

    std::size_t sizeHint() const override { return inner_->sizeHint(); }

  private:
    std::unique_ptr<gral::AccessProducer> inner_;
    FillStats &stats_;
};

/** Wrap every producer of @p producers in a TimedProducer. */
gral::ProducerSet timeFills(gral::ProducerSet producers,
                            FillStats &stats);

/** What the checks and metrics read from one cell. */
struct CellOutcome
{
    std::string kernel;
    std::string ra;
    bool relabeled = true;
    double reorderSeconds = 0.0;
    unsigned iterations = 0;
    double checksum = 0.0;
    /** Best real kernel time (ms) and the nominal edge work of one
     *  run (kernels.medges_per_s = work / time). */
    double timeMs = 0.0;
    double edgeWork = 0.0;
    double idlePercent = 0.0;
    std::uint64_t steals = 0;
    double compBytesPerEdge = 0.0;
    /** Simulated counters. */
    std::uint64_t accesses = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t dtlbHits = 0;
    std::uint64_t dtlbMisses = 0;
    std::uint64_t dataAccesses = 0;
    std::uint64_t dataMisses = 0;
    std::uint64_t pushDataAccesses = 0;
    std::uint64_t pushDataMisses = 0;
    std::uint64_t pullDataAccesses = 0;
    std::uint64_t pullDataMisses = 0;
    std::uint64_t pushHubMisses = 0;
    std::uint64_t pullHubMisses = 0;
    /** Failed output checks, one line each. */
    std::vector<std::string> failures;

    double dataMissRate() const;
};

/** Outcome of the ECS scan. */
struct EcsOutcome
{
    double ecsPercent = 0.0;
    std::uint64_t scans = 0;
    std::uint64_t accesses = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::vector<std::string> failures;
};

/** Nominal edge work of one run of @p kernel (the legacy kernel
 *  baseline's definition): sweeps touch every edge per iteration, BFS
 *  every edge once, CC both directions per sweep. */
double kernelEdgeWork(const std::string &kernel,
                      const gral::GraphView &graph, unsigned iterations);

/** Untraced cell: gral::runRaExperiment. */
CellOutcome runCell(const gral::GraphView &base,
                    const std::string &kernel, const std::string &ra);

/** Traced cell: runRaExperiment's stages, one span per layer call,
 *  all under an "analysis.cell" span of id @p cell. */
CellOutcome runTracedCell(const gral::GraphView &base,
                          const std::string &kernel,
                          const std::string &ra, SpanTrace &trace,
                          std::int32_t cell, FillStats &fills);

/** ECS of the Bl SpMV trace; traced under its own cell when
 *  @p trace is non-null. */
EcsOutcome runEcs(const gral::GraphView &base, SpanTrace *trace,
                  std::int32_t cell, FillStats *fills);

/**
 * Check one sweep's outputs; failures are appended to the offending
 * cell. Every seed: simulated hits + misses equal accesses (cache and
 * DTLB), SpMV checksum = |E|, PageRank's final delta within
 * tolerance, BFS reached count and CC component count equal across
 * RAs, ECS within (0, 100]. Seed 0 only: every Bl cell and the ECS
 * scan match the golden counters.
 */
void checkSweep(const WorkloadSpec &spec, std::uint64_t seed,
                const gral::GraphView &base,
                std::vector<CellOutcome> &cells, EcsOutcome *ecs);

/** Fail @p traced where its deterministic outputs differ from
 *  @p untraced's: the traced path no longer mirrors runRaExperiment. */
void checkMirror(const CellOutcome &untraced, CellOutcome &traced);

/** A metric the benchmark reports. */
struct MetricDef
{
    std::string name;
    std::string unit;
};

/** Metrics of an untraced run (every BENCHMARK.json end_to_end
 *  metric, plus error_rate, which is printed but is 0 on a correct
 *  program). */
const std::vector<MetricDef> &endToEndMetrics();

/** Metrics of a traced run. */
const std::vector<MetricDef> &perLayerMetrics();

/** Name matches [A-Za-z0-9_.-]+. */
bool validMetricName(const std::string &name);

} // namespace perfbench

#endif // GRAL_PERFBENCH_CELLS_H
