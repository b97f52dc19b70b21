#include "span_trace.h"

#include <algorithm>
#include <utility>

#include "obs/json.h"

namespace perfbench
{

std::string
Span::layer() const
{
    return name.substr(0, name.find('.'));
}

SpanTrace::SpanTrace() : epoch_(Clock::now()) {}

double
SpanTrace::now() const
{
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

SpanTrace::Scope::Scope(SpanTrace &trace, std::string name,
                        std::int32_t cell)
    : trace_(trace)
{
    Span span;
    span.name = std::move(name);
    span.parent = trace.open_.empty() ? kNone : trace.open_.back();
    span.cell = cell;
    span.start = trace.now();
    id_ = trace.add(std::move(span));
    trace.open_.push_back(id_);
}

SpanTrace::Scope::~Scope()
{
    trace_.spans_[id_].end = trace_.now();
    trace_.open_.pop_back();
}

void
SpanTrace::addAggregate(std::int32_t parent, std::string name,
                        double busy, std::uint64_t calls)
{
    Span span;
    span.name = std::move(name);
    span.parent = parent;
    span.cell = spans_[parent].cell;
    span.start = spans_[parent].start;
    span.end = now();
    span.aggregate = true;
    span.busy = busy;
    span.calls = calls;
    add(std::move(span));
}

std::int32_t
SpanTrace::add(Span span)
{
    spans_.push_back(std::move(span));
    return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::int32_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent != kNone)
            children[spans[i].parent].push_back(
                static_cast<std::int32_t>(i));

    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        double covered = 0.0;
        std::vector<std::pair<double, double>> intervals;
        for (std::int32_t c : children[i]) {
            const Span &child = spans[c];
            if (child.aggregate) {
                covered += child.busy;
                continue;
            }
            double lo = std::max(child.start, span.start);
            double hi = std::min(child.end, span.end);
            if (hi > lo)
                intervals.emplace_back(lo, hi);
        }
        std::sort(intervals.begin(), intervals.end());
        double reach = span.start;
        for (const auto &[lo, hi] : intervals) {
            double from = std::max(lo, reach);
            if (hi > from) {
                covered += hi - from;
                reach = hi;
            }
        }
        self[i] = span.duration() - covered;
    }
    return self;
}

double
Waterfall::total() const
{
    double sum = 0.0;
    for (const auto &[layer, seconds] : layerSelf)
        sum += seconds;
    return sum;
}

std::vector<Waterfall>
cellWaterfalls(const std::vector<Span> &spans,
               const std::vector<double> &self)
{
    std::vector<Waterfall> falls;
    std::map<std::int32_t, std::size_t> by_cell;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        if (span.name == "analysis.cell" && span.parent == kNone) {
            by_cell[span.cell] = falls.size();
            Waterfall fall;
            fall.cell = span.cell;
            fall.wall = span.duration();
            falls.push_back(std::move(fall));
        }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto it = by_cell.find(spans[i].cell);
        if (it != by_cell.end())
            falls[it->second].layerSelf[spans[i].layer()] += self[i];
    }
    return falls;
}

std::string
spansJson(const std::vector<Span> &spans, const std::vector<double> &self)
{
    gral::JsonWriter json;
    json.beginObject().key("spans").beginArray();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        json.beginObject()
            .key("id")
            .value(static_cast<std::int64_t>(i))
            .key("name")
            .value(span.name)
            .key("parent")
            .value(static_cast<std::int64_t>(span.parent))
            .key("cell")
            .value(static_cast<std::int64_t>(span.cell))
            .key("start_s")
            .value(span.start)
            .key("end_s")
            .value(span.end)
            .key("aggregate")
            .value(span.aggregate)
            .key("calls")
            .value(span.calls)
            .key("duration_s")
            .value(span.duration())
            .key("self_s")
            .value(self[i])
            .endObject();
    }
    json.endArray().endObject();
    return json.str();
}

} // namespace perfbench
