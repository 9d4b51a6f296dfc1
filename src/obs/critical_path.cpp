#include "obs/critical_path.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <ostream>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"  // json_escape
#include "obs/names.hpp"

namespace hmca::obs {

namespace {

// Tolerance for "finished at or before": virtual times are exact doubles
// produced by the same arithmetic on both ends, but summed delays can
// differ in the last ulp.
constexpr double kEps = 1e-12;

bool is_link(const trace::Span& s) {
  if (s.kind == trace::Kind::kPhase) return false;
  // Macro tasks run a whole sub-collective as one container task; like
  // kPhase spans they *enclose* the real activity, and letting them onto
  // the path would collapse it to a single unclassifiable span.
  if (s.kind == trace::Kind::kTask && names::is_wrapped_task(s.label)) {
    return false;
  }
  return s.t1 > s.t0;
}

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

// Span indices grouped by an int key (a rank or a peer, -1 included), as
// one flat CSR array: each group keeps the order the indices were fed in.
class Groups {
 public:
  template <typename KeyOf>
  Groups(const std::vector<std::uint32_t>& order, KeyOf key_of) {
    std::vector<std::uint32_t> count;
    for (const std::uint32_t i : order) {
      const auto [it, fresh] =
          id_.try_emplace(key_of(i), static_cast<std::uint32_t>(count.size()));
      if (fresh) count.push_back(0);
      ++count[it->second];
    }
    // Prefix sums; `count` then serves as each group's fill cursor.
    start_.assign(count.size() + 1, 0);
    for (std::size_t g = 0; g < count.size(); ++g) {
      start_[g + 1] = start_[g] + count[g];
      count[g] = start_[g];
    }
    idx_.resize(order.size());
    for (const std::uint32_t i : order) idx_[count[id_.at(key_of(i))]++] = i;
  }

  std::span<const std::uint32_t> operator[](int key) const {
    const auto it = id_.find(key);
    if (it == id_.end()) return {};
    return {idx_.data() + start_[it->second],
            idx_.data() + start_[it->second + 1]};
  }

 private:
  std::unordered_map<int, std::uint32_t> id_;
  std::vector<std::uint32_t> start_;
  std::vector<std::uint32_t> idx_;
};

// The span stream indexed once for the backward walk. Link spans are
// stable-sorted by t1, so within every list equal-t1 spans sit in span
// (scan) order; phase spans stay in scan order per rank.
class SpanIndex {
 public:
  explicit SpanIndex(const std::vector<trace::Span>& spans)
      : spans_(spans),
        links_(sorted_links(spans)),
        by_rank_(links_, [&](std::uint32_t i) { return spans[i].rank; }),
        by_peer_(links_, [&](std::uint32_t i) { return spans[i].peer; }),
        phases_(phase_spans(spans),
                [&](std::uint32_t i) { return spans[i].rank; }) {}

  /// The latest-ending link span of the stream (lowest index on ties).
  std::uint32_t last() const {
    return best_in(links_, std::numeric_limits<sim::Time>::infinity(), kNone);
  }

  /// Predecessor of `cur`: the latest-ending span that finished by the
  /// time `cur` started (lowest index on ties). Spans on cur's rank, on
  /// its peer rank, or whose peer is cur's rank are the releasing
  /// dependency, ranked together; fall back to any rank so chains survive
  /// spans the instrumentation didn't connect.
  std::uint32_t predecessor(std::uint32_t cur) const {
    const trace::Span& c = spans_[cur];
    const sim::Time limit = c.t0 + kEps;
    std::uint32_t best = kNone;
    for (const auto list :
         {by_rank_[c.rank], by_rank_[c.peer], by_peer_[c.rank]}) {
      const std::uint32_t cand = best_in(list, limit, cur);
      if (better(cand, best)) best = cand;
    }
    return best != kNone ? best : best_in(links_, limit, cur);
  }

  // Innermost enclosing kPhase label on the step's rank ("" if none). The
  // generic "exchange" phase of flat algorithms yields to any enclosing
  // paper phase: a ring used as the phase-1 building block of a
  // hierarchical collective still attributes its steps to phase1.
  std::string phase_of(const trace::Span& step) const {
    const trace::Span* best = nullptr;
    const trace::Span* best_exchange = nullptr;
    for (const std::uint32_t i : phases_[step.rank]) {
      const trace::Span& p = spans_[i];
      if (p.t0 > step.t0 + kEps || p.t1 + kEps < step.t1) continue;
      if (p.label == names::kPhaseExchange) {
        if (best_exchange == nullptr ||
            p.t1 - p.t0 < best_exchange->t1 - best_exchange->t0) {
          best_exchange = &p;
        }
        continue;
      }
      if (best == nullptr || p.t1 - p.t0 < best->t1 - best->t0) best = &p;
    }
    if (best == nullptr) best = best_exchange;
    return best != nullptr ? best->label : std::string{};
  }

 private:
  static std::vector<std::uint32_t> sorted_links(
      const std::vector<trace::Span>& spans) {
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (is_link(spans[i])) out.push_back(static_cast<std::uint32_t>(i));
    }
    std::stable_sort(out.begin(), out.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return spans[a].t1 < spans[b].t1;
                     });
    return out;
  }

  static std::vector<std::uint32_t> phase_spans(
      const std::vector<trace::Span>& spans) {
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const trace::Span& s = spans[i];
      if (s.kind == trace::Kind::kPhase && !names::is_annotation(s.label)) {
        out.push_back(static_cast<std::uint32_t>(i));
      }
    }
    return out;
  }

  // Later t1 wins; among equal t1 the lower span index (first in scan
  // order) wins.
  bool better(std::uint32_t a, std::uint32_t b) const {
    if (a == kNone) return false;
    if (b == kNone) return true;
    const sim::Time ta = spans_[a].t1;
    const sim::Time tb = spans_[b].t1;
    return ta > tb || (!(tb > ta) && a < b);
  }

  // Best span of a t1-sorted list with t1 <= limit, skipping `self`.
  std::uint32_t best_in(std::span<const std::uint32_t> list, sim::Time limit,
                        std::uint32_t self) const {
    auto end = std::upper_bound(
        list.begin(), list.end(), limit,
        [&](sim::Time t, std::uint32_t i) { return t < spans_[i].t1; });
    while (end != list.begin()) {
      const sim::Time t1 = spans_[*(end - 1)].t1;
      const auto first = std::lower_bound(
          list.begin(), end, t1,
          [&](std::uint32_t i, sim::Time t) { return spans_[i].t1 < t; });
      if (*first != self) return *first;
      if (first + 1 != end) return first[1];
      end = first;
    }
    return kNone;
  }

  const std::vector<trace::Span>& spans_;
  std::vector<std::uint32_t> links_;
  Groups by_rank_;
  Groups by_peer_;
  Groups phases_;
};

// Merge a span-interval list into a disjoint sorted union.
std::vector<std::pair<sim::Time, sim::Time>> merged(
    std::vector<std::pair<sim::Time, sim::Time>> iv) {
  std::sort(iv.begin(), iv.end());
  std::vector<std::pair<sim::Time, sim::Time>> out;
  for (const auto& [a, b] : iv) {
    if (!out.empty() && a <= out.back().second) {
      out.back().second = std::max(out.back().second, b);
    } else {
      out.emplace_back(a, b);
    }
  }
  return out;
}

sim::Duration total_len(
    const std::vector<std::pair<sim::Time, sim::Time>>& iv) {
  sim::Duration t = 0;
  for (const auto& [a, b] : iv) t += b - a;
  return t;
}

std::string us(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e6);
  return buf;
}

}  // namespace

CriticalPathReport analyze_critical_path(
    const std::vector<trace::Span>& spans) {
  CriticalPathReport rep;

  if (spans.size() > kNone) {
    throw std::length_error("analyze_critical_path: more than 2^32-1 spans");
  }
  const SpanIndex index(spans);

  // Walk back from the latest-ending real activity. Spans shorter than
  // kEps can make a predecessor's predecessor the span itself; the walk
  // stops at the first span already on the chain, so the chain is a
  // simple path and no time is counted twice.
  std::vector<bool> on_chain(spans.size());
  std::vector<std::uint32_t> chain;
  for (std::uint32_t cur = index.last(); cur != kNone && !on_chain[cur];
       cur = index.predecessor(cur)) {
    on_chain[cur] = true;
    chain.push_back(cur);
  }
  std::reverse(chain.begin(), chain.end());

  for (const std::uint32_t i : chain) {
    const trace::Span& s = spans[i];
    const sim::Duration d = s.t1 - s.t0;
    std::string phase = index.phase_of(s);
    rep.by_kind[trace::kind_name(s.kind)] += d;
    if (!phase.empty()) rep.by_phase[phase] += d;
    rep.by_phase_kind[phase][trace::kind_name(s.kind)] += d;
    rep.total += d;
    rep.steps.push_back(CriticalPathReport::Step{
        s.rank, s.kind, s.t0, s.t1, s.peer, s.bytes, s.label,
        std::move(phase)});
  }

  // Dominant kind: the longest contributor that isn't blocked time — waits
  // are a symptom, not the resource to optimize.
  sim::Duration best = -1;
  for (const auto& [kind, d] : rep.by_kind) {
    if (kind == trace::kind_name(trace::Kind::kWait)) continue;
    if (d > best) {
      best = d;
      rep.dominant_kind = kind;
    }
  }
  if (rep.dominant_kind.empty() && !rep.by_kind.empty()) {
    rep.dominant_kind = rep.by_kind.begin()->first;
  }
  best = -1;
  for (const auto& [phase, d] : rep.by_phase) {
    if (d > best) {
      best = d;
      rep.dominant_phase = phase;
    }
  }
  return rep;
}

void CriticalPathReport::write_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << pad << "{\n";
  os << pad << "  \"total_us\": " << us(total) << ",\n";
  os << pad << "  \"dominant_kind\": \"" << json_escape(dominant_kind)
     << "\",\n";
  os << pad << "  \"dominant_phase\": \"" << json_escape(dominant_phase)
     << "\",\n";
  const auto table = [&](const char* name,
                         const std::map<std::string, sim::Duration>& m) {
    os << pad << "  \"" << name << "\": {";
    bool first = true;
    for (const auto& [k, d] : m) {
      os << (first ? "" : ", ") << '"' << json_escape(k)
         << "\": " << us(d);
      first = false;
    }
    os << "},\n";
  };
  table("by_kind_us", by_kind);
  table("by_phase_us", by_phase);
  os << pad << "  \"by_phase_kind_us\": {";
  bool first_phase = true;
  for (const auto& [phase, kinds] : by_phase_kind) {
    os << (first_phase ? "" : ", ") << '"' << json_escape(phase) << "\": {";
    bool first_kind = true;
    for (const auto& [k, d] : kinds) {
      os << (first_kind ? "" : ", ") << '"' << json_escape(k)
         << "\": " << us(d);
      first_kind = false;
    }
    os << '}';
    first_phase = false;
  }
  os << "},\n";
  os << pad << "  \"steps\": [";
  bool first = true;
  for (const auto& st : steps) {
    os << (first ? "\n" : ",\n") << pad << "    {\"rank\": " << st.rank
       << ", \"kind\": \"" << trace::kind_name(st.kind)
       << "\", \"t0_us\": " << us(st.t0)
       << ", \"dur_us\": " << us(st.t1 - st.t0) << ", \"peer\": " << st.peer
       << ", \"bytes\": " << st.bytes << ", \"label\": \""
       << json_escape(st.label) << "\", \"phase\": \""
       << json_escape(st.phase) << "\"}";
    first = false;
  }
  if (!first) os << '\n' << pad << "  ";
  os << "]\n" << pad << '}';
}

std::string CriticalPathReport::summary() const {
  if (steps.empty()) return "critical path: no spans";
  std::string out = "critical path " + us(total) + " us over " +
                    std::to_string(steps.size()) + " spans";
  if (!dominant_kind.empty()) {
    const auto it = by_kind.find(dominant_kind);
    const double share =
        total > 0 && it != by_kind.end() ? it->second / total * 100.0 : 0.0;
    char pct[16];
    std::snprintf(pct, sizeof pct, "%.0f%%", share);
    out += "; dominant kind " + dominant_kind + " (" + pct + ")";
  }
  if (!dominant_phase.empty()) out += "; dominant phase " + dominant_phase;
  return out;
}

double phase_overlap_fraction(const std::vector<trace::Span>& spans) {
  std::vector<std::pair<sim::Time, sim::Time>> p2;
  std::vector<std::pair<sim::Time, sim::Time>> p3;
  for (const auto& s : spans) {
    if (s.kind != trace::Kind::kPhase || !(s.t1 > s.t0)) continue;
    if (s.label == "phase2") p2.emplace_back(s.t0, s.t1);
    if (s.label == "phase3") p3.emplace_back(s.t0, s.t1);
  }
  const auto u2 = merged(std::move(p2));
  const auto u3 = merged(std::move(p3));
  const sim::Duration len3 = total_len(u3);
  if (!(len3 > 0)) return 0.0;

  // Both unions are sorted and disjoint, so the phase-3 intervals that
  // overlap one phase-2 interval form a run that only moves forward. The
  // sweep adds the overlaps in the (i2, i3) order of an all-pairs loop.
  sim::Duration inter = 0;
  std::size_t j = 0;
  for (const auto& [a2, b2] : u2) {
    while (j < u3.size() && u3[j].second <= a2) ++j;
    for (std::size_t k = j; k < u3.size() && u3[k].first < b2; ++k) {
      const sim::Time lo = std::max(a2, u3[k].first);
      const sim::Time hi = std::min(b2, u3[k].second);
      if (hi > lo) inter += hi - lo;
    }
  }
  return inter / len3;
}

}  // namespace hmca::obs
