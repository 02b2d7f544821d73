#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string layer_of(const std::string& name) {
    const auto dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

} // namespace

std::int32_t Tracer::open(std::string_view name, std::uint64_t request_id) {
    if (!enabled_) return -1;
    Span span;
    span.name = std::string(name);
    span.parent = open_stack_.empty() ? -1 : open_stack_.back();
    span.request_id = request_id;
    span.start = Clock::now();
    spans_.push_back(std::move(span));
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    open_stack_.push_back(index);
    return index;
}

void Tracer::close(std::int32_t span) {
    if (span < 0) return;
    spans_[static_cast<std::size_t>(span)].end = Clock::now();
    if (open_stack_.empty() || open_stack_.back() != span)
        throw std::logic_error("trace: spans must close innermost first");
    open_stack_.pop_back();
}

void Tracer::record(std::string_view name, Clock::time_point start, Clock::time_point end,
                    std::uint64_t request_id) {
    if (!enabled_) return;
    Span span;
    span.name = std::string(name);
    span.start = start;
    span.end = end;
    span.parent = open_stack_.empty() ? -1 : open_stack_.back();
    span.request_id = request_id;
    spans_.push_back(std::move(span));
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);

    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        // Union of the children's intervals, clipped to this span: children
        // of one parent may overlap (requests in flight together).
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        for (const std::size_t c : children[i])
            iv.emplace_back(std::max(spans_[c].start, s.start), std::min(spans_[c].end, s.end));
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        Clock::time_point run_start{}, run_end{};
        bool open = false;
        for (const auto& [a, b] : iv) {
            if (b <= a) continue;
            if (open && a <= run_end) {
                run_end = std::max(run_end, b);
                continue;
            }
            if (open) covered += ms_between(run_start, run_end);
            run_start = a;
            run_end = b;
            open = true;
        }
        if (open) covered += ms_between(run_start, run_end);
        self[layer_of(s.name)] += ms_between(s.start, s.end) - covered;
    }
    return self;
}

double Tracer::total_ms(std::string_view name) const {
    double total = 0.0;
    for (const Span& s : spans_)
        if (s.name == name) total += ms_between(s.start, s.end);
    return total;
}

void Tracer::write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("trace: cannot write " + path);
    const Clock::time_point origin = spans_.empty() ? Clock::time_point{} : spans_.front().start;
    const auto us = [origin](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    out << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"start_us\": " << us(s.start) << ", \"end_us\": " << us(s.end)
            << ", \"parent\": " << s.parent << ", \"request\": " << s.request_id << "}";
    }
    out << "\n]}\n";
}

double Tracer::span_cost_ns() {
    constexpr int kSpans = 20000;
    Tracer probe(true);
    probe.spans_.reserve(kSpans);
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kSpans; ++i) {
        const std::int32_t span = probe.open("harness.calibrate");
        probe.close(span);
    }
    return std::chrono::duration<double, std::nano>(Clock::now() - start).count() / kSpans;
}

} // namespace perfbench
