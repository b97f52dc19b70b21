/**
 * @file
 * Tests of the benchmark's own code: the fill()-timing decorator,
 * metric names, and self-time accounting on a span tree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/datasets.h"
#include "cells.h"
#include "graph/degree.h"
#include "kernels/kernel.h"
#include "metrics/miss_rate.h"
#include "span_trace.h"

namespace perfbench
{
namespace
{

gral::MissProfileResult
profile(gral::Kernel &kernel, const gral::GraphView &graph,
        FillStats *fills)
{
    gral::ExperimentOptions options =
        experimentOptions(std::string(kernel.name()));
    std::vector<gral::EdgeId> in = gral::degrees(graph, gral::Direction::In);
    std::vector<gral::EdgeId> out =
        gral::degrees(graph, gral::Direction::Out);
    gral::SimulationOptions sim = options.sim;
    sim.hubDegreeThreshold =
        static_cast<gral::EdgeId>(gral::hubThreshold(graph));
    sim.pushHubDegrees = in;
    sim.pullHubDegrees = out;
    sim.missThresholds = {4, 64};
    gral::ProducerSet producers = kernel.makeProducers(graph, options.trace);
    if (fills != nullptr)
        producers = timeFills(std::move(producers), *fills);
    return gral::simulateMissProfile(std::move(producers), in, out, sim);
}

void
expectSameCache(const gral::CacheStats &a, const gral::CacheStats &b)
{
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.writebacks, b.writebacks);
}

void
expectSamePhase(const gral::PhaseMissCounters &a,
                const gral::PhaseMissCounters &b)
{
    EXPECT_EQ(a.dataAccesses, b.dataAccesses);
    EXPECT_EQ(a.dataMisses, b.dataMisses);
    EXPECT_EQ(a.hubAccesses, b.hubAccesses);
    EXPECT_EQ(a.hubMisses, b.hubMisses);
}

class TimedProducerTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(TimedProducerTest, LeavesMissProfileBitIdentical)
{
    gral::Graph graph = gral::makeDataset("sk-s", 0.05);
    gral::KernelPtr plain_kernel = gral::makeKernel(GetParam());
    gral::KernelPtr timed_kernel = gral::makeKernel(GetParam());
    FillStats fills;
    gral::MissProfileResult plain = profile(*plain_kernel, graph, nullptr);
    gral::MissProfileResult timed = profile(*timed_kernel, graph, &fills);

    ASSERT_GT(plain.totalAccesses, 0u);
    EXPECT_EQ(plain.totalAccesses, timed.totalAccesses);
    expectSameCache(plain.cache, timed.cache);
    EXPECT_EQ(plain.tlb.hits, timed.tlb.hits);
    EXPECT_EQ(plain.tlb.misses, timed.tlb.misses);
    EXPECT_EQ(plain.dataAccesses, timed.dataAccesses);
    EXPECT_EQ(plain.dataMisses, timed.dataMisses);
    EXPECT_EQ(plain.missesAboveThreshold, timed.missesAboveThreshold);
    expectSamePhase(plain.pushPhase, timed.pushPhase);
    expectSamePhase(plain.pullPhase, timed.pullPhase);
    for (std::size_t c = 0; c < gral::kNumSetClasses; ++c)
        expectSameCache(plain.classStats[c], timed.classStats[c]);
    ASSERT_EQ(plain.pselSamples.size(), timed.pselSamples.size());
    for (std::size_t i = 0; i < plain.pselSamples.size(); ++i) {
        EXPECT_EQ(plain.pselSamples[i].access, timed.pselSamples[i].access);
        EXPECT_EQ(plain.pselSamples[i].psel, timed.pselSamples[i].psel);
    }
    EXPECT_EQ(plain.peakResidentAccesses, timed.peakResidentAccesses);

    // The decorator saw every access it passed on.
    EXPECT_EQ(fills.accesses, timed.totalAccesses);
    EXPECT_GT(fills.calls, 0u);
    EXPECT_GT(fills.seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Kernels, TimedProducerTest,
                         ::testing::Values("spmv", "pagerank", "bfs",
                                           "cc"));

TEST(MetricNames, AllMatchThePattern)
{
    std::set<std::string> seen;
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricDef &def : *list) {
            EXPECT_TRUE(validMetricName(def.name)) << def.name;
            EXPECT_FALSE(def.unit.empty()) << def.name;
            EXPECT_TRUE(seen.insert(def.name).second)
                << "duplicate " << def.name;
        }
    }
}

TEST(MetricNames, PatternRejectsOtherCharacters)
{
    EXPECT_TRUE(validMetricName("cachesim.ns_per_access"));
    EXPECT_TRUE(validMetricName("a-b.c_9"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("reorder.SB++_s"));
    EXPECT_FALSE(validMetricName("sweep s"));
    EXPECT_FALSE(validMetricName("kernels/time"));
}

TEST(MetricNames, EveryWorkloadReordererHasALayerMetric)
{
    std::set<std::string> names;
    for (const MetricDef &def : perLayerMetrics())
        names.insert(def.name);
    for (const WorkloadSpec &spec : workloads())
        for (const std::string &ra : spec.ras) {
            if (ra != "Bl") {
                EXPECT_TRUE(names.count("reorder." + ra + "_s"))
                    << spec.name << " " << ra;
            }
        }
}

Span
interval(const char *name, std::int32_t parent, double start, double end)
{
    Span span;
    span.name = name;
    span.parent = parent;
    span.cell = 0;
    span.start = start;
    span.end = end;
    return span;
}

TEST(SelfTime, HandBuiltTree)
{
    // cell [0,10]
    //   reorder.SB [1,4]
    //     graph.relabel [2,3]
    //   cachesim.simulate [3,6]   (overlaps reorder.SB on [3,4])
    //     kernels.fill aggregate, 1.5 s busy over 7 calls
    //   metrics.compress [9,12]   (runs past the parent; clipped)
    SpanTrace trace;
    std::int32_t cell = trace.add(interval("analysis.cell", kNone, 0, 10));
    std::int32_t sb = trace.add(interval("reorder.SB", cell, 1, 4));
    trace.add(interval("graph.relabel", sb, 2, 3));
    std::int32_t sim = trace.add(interval("cachesim.simulate", cell, 3, 6));
    trace.addAggregate(sim, "kernels.fill", 1.5, 7);
    trace.add(interval("metrics.compress", cell, 9, 12));

    std::vector<double> self = selfTimes(trace.spans());
    ASSERT_EQ(self.size(), 6u);
    EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0); // union [1,6] + [9,10]
    EXPECT_DOUBLE_EQ(self[1], 2.0);
    EXPECT_DOUBLE_EQ(self[2], 1.0);
    EXPECT_DOUBLE_EQ(self[3], 1.5);
    EXPECT_DOUBLE_EQ(self[4], 1.5);
    EXPECT_EQ(trace.spans()[4].cell, 0);
    EXPECT_EQ(trace.spans()[4].calls, 7u);
    EXPECT_DOUBLE_EQ(self[5], 3.0);

    std::vector<Waterfall> falls = cellWaterfalls(trace.spans(), self);
    ASSERT_EQ(falls.size(), 1u);
    EXPECT_DOUBLE_EQ(falls[0].wall, 10.0);
    EXPECT_DOUBLE_EQ(falls[0].layerSelf.at("analysis"), 4.0);
    EXPECT_DOUBLE_EQ(falls[0].layerSelf.at("reorder"), 2.0);
    EXPECT_DOUBLE_EQ(falls[0].layerSelf.at("graph"), 1.0);
    EXPECT_DOUBLE_EQ(falls[0].layerSelf.at("cachesim"), 1.5);
    EXPECT_DOUBLE_EQ(falls[0].layerSelf.at("kernels"), 1.5);
    EXPECT_DOUBLE_EQ(falls[0].layerSelf.at("metrics"), 3.0);
}

TEST(SelfTime, NestedScopesAddUpToWall)
{
    SpanTrace trace;
    {
        SpanTrace::Scope cell(trace, "analysis.cell", 3);
        {
            SpanTrace::Scope a(trace, "reorder.GO", 3);
            SpanTrace::Scope b(trace, "graph.relabel", 3);
        }
        SpanTrace::Scope c(trace, "cachesim.simulate", 3);
        trace.addAggregate(c.id(), "kernels.fill", 0.0, 1);
    }
    const std::vector<Span> &spans = trace.spans();
    ASSERT_EQ(spans.size(), 5u);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[2].parent, 1);
    EXPECT_EQ(spans[3].parent, 0);
    EXPECT_EQ(spans[4].parent, 3);
    std::vector<double> self = selfTimes(spans);
    for (double s : self)
        EXPECT_GE(s, 0.0);
    std::vector<Waterfall> falls = cellWaterfalls(spans, self);
    ASSERT_EQ(falls.size(), 1u);
    EXPECT_EQ(falls[0].cell, 3);
    EXPECT_NEAR(falls[0].total(), falls[0].wall, 1e-12);
}

} // namespace
} // namespace perfbench
