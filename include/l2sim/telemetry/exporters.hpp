// Exporters: turn a telemetry::Snapshot into artifacts people and tools
// consume — a Chrome trace-event JSON file (load it in Perfetto / DevTools;
// one process per node, one track per resource), CSV time-series for
// plotting pipelines, a spans CSV with the per-resource breakdown, and a
// human summary table. Exporters are pure functions of the snapshot; they
// never touch the simulation.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "l2sim/telemetry/registry.hpp"

namespace l2s::telemetry {

/// Chrome trace-event JSON (the "traceEvents" array format). Spans become
/// "X" complete events on per-node resource tracks (entry / hand-off /
/// storage / reply), fault transitions and failed requests become instant
/// events, and probe series become "C" counter tracks. Timestamps are
/// microseconds (SimTime ns / 1000). `extra_events` are pre-rendered JSON
/// event objects (e.g. from obs::decision_chrome_events) spliced into the
/// traceEvents array.
void write_chrome_trace(std::ostream& out, const Snapshot& snapshot,
                        const std::vector<std::string>& extra_events);
void write_chrome_trace(std::ostream& out, const Snapshot& snapshot);

/// Scalar metrics (counters, gauges, histogram quantiles) as
/// name,labels,kind,count,value,min,max rows.
void write_metrics_csv(std::ostream& out, const Snapshot& snapshot);

/// Time-series metrics (bucket + sample series) as long-format
/// name,labels,time_s,value rows.
void write_timeseries_csv(std::ostream& out, const Snapshot& snapshot);

/// Sampled spans, one row each, with the per-resource stage breakdown.
void write_spans_csv(std::ostream& out, const Snapshot& snapshot);

/// Human-readable summary: headline counters, response-time quantiles,
/// span accounting and the per-resource stage means reconstructed from the
/// sampled spans.
void write_summary(std::ostream& out, const Snapshot& snapshot);

/// Path-based wrappers; throw std::runtime_error when the file can't be
/// opened.
void export_chrome_trace(const std::string& path, const Snapshot& snapshot);
void export_metrics_csv(const std::string& path, const Snapshot& snapshot);
void export_timeseries_csv(const std::string& path, const Snapshot& snapshot);
void export_spans_csv(const std::string& path, const Snapshot& snapshot);

}  // namespace l2s::telemetry
