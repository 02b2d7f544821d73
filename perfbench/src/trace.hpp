#pragma once
// In-memory span tracing for the traced benchmark run.
//
// A span is (name, start, end, parent, request id). Spans are recorded by
// the benchmark's own code around each call into a layer's public entry
// points; the layer is the name's prefix before the first '.'. Nothing is
// written while the run measures: the spans are kept in a vector and
// written out as JSON when the run ends. With tracing off, open()/close()
// return immediately and record nothing — the end-to-end metrics are only
// ever measured that way.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::int32_t parent = -1;     ///< index of the enclosing span, -1 at the root
    std::uint64_t request_id = 0; ///< shared by the spans of one request (0 = none)
};

class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const noexcept { return enabled_; }

    /// Opens a span nested in the innermost open one; -1 when disabled.
    std::int32_t open(std::string_view name, std::uint64_t request_id = 0);
    void close(std::int32_t span);
    /// Records an already finished span (requests in flight overlap, so
    /// the open-loop client records them after the reply arrives).
    void record(std::string_view name, Clock::time_point start, Clock::time_point end,
                std::uint64_t request_id = 0);

    const std::vector<Span>& spans() const noexcept { return spans_; }

    /// Self time per layer in ms: each span's duration minus the part of
    /// its interval covered by its children, summed by name prefix.
    std::map<std::string, double> self_ms_by_layer() const;
    /// Summed duration of the spans named `name`, in ms.
    double total_ms(std::string_view name) const;

    /// Writes {"spans": [...]} with times in microseconds from the first
    /// span's start.
    void write_json(const std::string& path) const;

    /// Cost of one open()+close() pair, measured at run time, in ns.
    static double span_cost_ns();

private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
public:
    Scope(Tracer& tracer, std::string_view name, std::uint64_t request_id = 0)
        : tracer_(tracer), span_(tracer.open(name, request_id)) {}
    ~Scope() { tracer_.close(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Tracer& tracer_;
    std::int32_t span_;
};

} // namespace perfbench
