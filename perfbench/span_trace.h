/**
 * @file
 * In-memory span tree the benchmark records around its calls into
 * the library's layers.
 *
 * A span is named "<layer>.<step>" (layer = a src/ module name) and
 * belongs to one experiment cell. Spans stay in memory for the whole
 * run and are written out once at the end. Self time — the span's
 * duration minus the part of its interval its child spans cover — is
 * what the per-layer waterfall adds up.
 */

#ifndef GRAL_PERFBENCH_SPAN_TRACE_H
#define GRAL_PERFBENCH_SPAN_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** No parent / no cell. */
inline constexpr std::int32_t kNone = -1;

/** One recorded span. */
struct Span
{
    std::string name;
    /** Index of the enclosing span, or kNone. */
    std::int32_t parent = kNone;
    /** Experiment cell the span belongs to, or kNone. */
    std::int32_t cell = kNone;
    /** Interval, seconds since the trace was created. */
    double start = 0.0;
    double end = 0.0;
    /** Aggregate span: many short calls (e.g. every producer fill()
     *  of one replay) folded into one record. Its busy time is the
     *  sum of the calls, not end - start. */
    bool aggregate = false;
    double busy = 0.0;
    std::uint64_t calls = 1;

    /** Time the span's own work took. */
    double
    duration() const
    {
        return aggregate ? busy : end - start;
    }

    /** Layer prefix of the name ("reorder" for "reorder.SB"). */
    std::string layer() const;
};

/** Records spans on one thread; not thread-safe. */
class SpanTrace
{
  public:
    using Clock = std::chrono::steady_clock;

    /** RAII span: open at construction, closed at destruction. */
    class Scope
    {
      public:
        Scope(SpanTrace &trace, std::string name, std::int32_t cell);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Index of the span in SpanTrace::spans(). */
        std::int32_t id() const { return id_; }

      private:
        SpanTrace &trace_;
        std::int32_t id_;
    };

    SpanTrace();

    /** Seconds since this trace was created. */
    double now() const;

    /** Append an aggregate child of @p parent. */
    void addAggregate(std::int32_t parent, std::string name,
                      double busy, std::uint64_t calls);

    /** Append a finished span (tests build trees this way). */
    std::int32_t add(Span span);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
};

/**
 * Self time of every span: its duration minus the union of its
 * interval children's intervals (clipped to it) and minus its
 * aggregate children's busy time.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Per-layer self time of one cell, plus the cell's wall time. */
struct Waterfall
{
    std::int32_t cell = kNone;
    double wall = 0.0;
    /** Layer -> self seconds; "analysis" holds the glue (the cell
     *  span's own self time). */
    std::map<std::string, double> layerSelf;

    /** Sum of layerSelf (equals wall for a well-formed tree). */
    double total() const;
};

/**
 * One waterfall per root span named "analysis.cell". The cell
 * span's own self time is the analysis layer's glue.
 */
std::vector<Waterfall> cellWaterfalls(const std::vector<Span> &spans,
                                      const std::vector<double> &self);

/** Spans as a JSON document ({"spans": [...]}) with self times. */
std::string spansJson(const std::vector<Span> &spans,
                      const std::vector<double> &self);

} // namespace perfbench

#endif // GRAL_PERFBENCH_SPAN_TRACE_H
