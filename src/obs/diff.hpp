// Differential run attribution: explain *why* a run got slower.
//
// The perf gate detects drift; this module explains it. Two runs of the
// same scenario are reduced to RunSummary structures (one per collective
// invocation), structurally aligned — by (op, subject, msg_bytes) across
// runs, by phase/resource-class/rail/task label within one — and the
// end-to-end latency delta is attributed hierarchically:
//
//   total        latency_us delta for the invocation
//   phase        critical-path time per phase ("phase2")
//   resource     critical-path time per resource class (cpu/nic/shm/wait)
//   phase.resource  the joint margin ("phase2/nic") — usually the headline
//   rail         per-rail busy time ("node0/rail1")
//   phase.rail   rail busy time inside one phase's interval union
//   task         per-task-label critical-path time, chunk suffix stripped
//   decision     selector decisions that changed ("allgather ring -> numa3")
//   counter      non-time counters (retries, restripes, bytes) as context
//
// Alignment is tolerant by construction: maps are joined on the key union
// (a rail present on one side only diffs against zero, with a note), and
// task labels have their "#c<chunk>" suffix stripped so runs with
// different chunk counts still align. A decision change is attributed the
// full latency delta — everything downstream of a different algorithm
// choice is its consequence.
//
// Everything is deterministic: maps are ordered, ranking ties break on
// (category, name), and all output goes through the fixed-format number
// printers — the same bytes for the same two inputs, every time.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/sink.hpp"
#include "trace/trace.hpp"

namespace hmca::obs {

class Metrics;

/// One run's per-invocation attribution surface — everything the diff can
/// align. Built either from live telemetry (summarize_invocation) or from
/// a flat bench-point metric map (run_summary_from_metrics).
struct RunSummary {
  std::string id;       ///< scenario/bench id, e.g. "fig13" — display only
  std::string op;       ///< collective op, e.g. "allgather"
  std::string subject;  ///< algorithm/subject under test
  double msg_bytes = 0;

  double latency_us = 0;
  double critical_path_us = 0;
  double overlap_fraction = 0;
  std::string world;  ///< topology fingerprint; "" = unknown

  std::vector<std::string> decisions;  ///< sorted unique "what=name,reason"

  // Critical-path time attributions (microseconds).
  std::map<std::string, double> phase_us;
  std::map<std::string, double> resource_us;  ///< cpu/nic/shm/wait
  std::map<std::string, std::map<std::string, double>> phase_resource_us;

  // Rail attributions; keys are "node<N>/rail<R>".
  std::map<std::string, double> rail_busy_us;
  std::map<std::string, double> rail_bytes;
  std::map<std::string, std::map<std::string, double>> phase_rail_busy_us;

  // Per-task-label critical-path time, chunk suffix stripped.
  std::map<std::string, double> task_us;

  // Counter totals by name (net.retries, shm.copy_bytes, ...).
  std::map<std::string, double> counters;

  /// Alignment key: two invocations diff against each other iff their
  /// keys match. `id` is deliberately excluded (same scenario may be
  /// relabelled across campaigns).
  std::string key() const;
};

/// Build a RunSummary from one invocation's live telemetry. Runs the
/// critical-path analyzer and the utilization attribution internally;
/// `wall_seconds` is the invocation latency.
RunSummary summarize_invocation(std::string id, std::string op,
                                std::string subject, double msg_bytes,
                                const std::vector<trace::Span>& spans,
                                const std::vector<ResourceSample>& samples,
                                const Metrics* metrics, double wall_seconds);

/// Build a RunSummary from a flat bench-point metric map (the campaign
/// runner's per-point metrics): latency_us / critical_path_us /
/// overlap_fraction map directly; "cp_phase_<p>_us", "cp_class_<c>_us",
/// "cp_cell_<p>_<c>_us" and "cp_kind_<k>_us"
/// feed the phase/resource tables; "net_rail<N>_bytes" and
/// "rail<N>_busy_frac" feed the rail tables (busy_frac is scaled by
/// latency; rails carry no node id in flat metrics, so keys are
/// "rail<N>"); the remaining counter-like metrics land in `counters`.
RunSummary run_summary_from_metrics(
    std::string id, std::string op, std::string subject, double msg_bytes,
    const std::map<std::string, double>& metrics, std::string decision);

struct DiffOptions {
  int top_k = 5;  ///< attributions printed per invocation in text/html
  /// Time deltas below this many microseconds are noise, not findings.
  double min_delta_us = 1e-3;
  /// Relative change below this is noise for non-time attributions.
  double min_rel = 1e-6;
};

/// One ranked finding inside an invocation diff.
struct Attribution {
  std::string category;  ///< "phase" | "resource" | "phase.resource" |
                         ///< "rail" | "phase.rail" | "task" | "decision" |
                         ///< "counter"
  std::string name;
  std::string unit;  ///< "us" | "bytes" | "count" | ""
  double base = 0;
  double next = 0;
  double delta = 0;  ///< next - base
  double share = 0;  ///< delta / latency delta (time attributions only)
  std::string note;  ///< e.g. "only in next run", "ring -> numa3"
};

/// The attribution of one aligned invocation pair.
struct InvocationDiff {
  std::string key;  ///< RunSummary::key() of both sides
  std::string op;
  std::string subject;
  double msg_bytes = 0;
  double base_latency_us = 0;
  double next_latency_us = 0;
  double delta_us = 0;
  double rel = 0;  ///< delta / base latency (0 when base is 0)
  std::string world_mismatch;  ///< shape-naming error text, "" when worlds
                               ///< match (or either is unknown)
  std::vector<Attribution> attributions;  ///< ranked, most significant first
  std::vector<std::string> notes;         ///< alignment tolerances applied

  /// One-line explanation, most specific dominant cause first, e.g.
  /// "fig13/65536: +18.2% latency; 92% of delta on phase2/nic;
  ///  decision allgather: ring -> numa3".
  std::string headline() const;
};

/// The full two-run comparison.
struct DiffReport {
  std::string base_label;
  std::string next_label;
  std::vector<std::pair<std::string, std::string>> base_provenance;
  std::vector<std::pair<std::string, std::string>> next_provenance;
  std::vector<InvocationDiff> invocations;  ///< aligned pairs, input order
  std::vector<std::string> only_base;       ///< keys with no partner
  std::vector<std::string> only_next;
  std::vector<std::string> notes;

  bool has_world_mismatch() const;

  /// {"format":"hmca-diff-1", ...} — deterministic bytes.
  void write_json(std::ostream& os) const;
  void write_text(std::ostream& os, int top_k = 5) const;
  void write_html(std::ostream& os, int top_k = 5) const;
};

/// Align `base` and `next` by RunSummary::key() and attribute each pair's
/// latency delta. Unmatched invocations land in only_base/only_next.
DiffReport diff_runs(const std::vector<RunSummary>& base,
                     const std::vector<RunSummary>& next,
                     const DiffOptions& opts = {});

}  // namespace hmca::obs
