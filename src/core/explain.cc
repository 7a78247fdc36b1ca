#include "core/explain.h"

#include <sstream>

#include "util/json.h"
#include "util/table.h"

namespace traceweaver {
namespace {

std::string Id(SpanId id) {
  return id == kInvalidSpanId ? std::string("-") : std::to_string(id);
}

std::string ChildrenList(const ExplainCandidate& c) {
  std::string out;
  for (std::size_t i = 0; i < c.children.size(); ++i) {
    if (i > 0) out += ',';
    out += c.children[i] == kSkippedChild ? "skip" : std::to_string(c.children[i]);
  }
  return out;
}

}  // namespace

std::string ExplainTable(const ExplainCapture& e) {
  std::ostringstream out;
  if (!e.found) {
    out << "parent span not found among optimizer tasks (unknown id, leaf "
           "handler, or no invocation plan)\n";
    return out.str();
  }
  out << "=== explain parent " << e.parent << " (" << e.service << " "
      << e.endpoint << ") ===\n";
  out << "candidates: " << e.candidates_enumerated << " enumerated, "
      << e.candidates_shown << " shown; batch " << e.batch << " ("
      << e.batch_size << " parents)";
  if (e.chosen_rank >= 0) {
    out << "; winner: rank " << e.chosen_rank;
  } else {
    out << "; UNMAPPED (no candidate chosen)";
  }
  out << '\n';

  TextTable table;
  table.SetHeader({"rank", "score", "picked", "top-k", "skips", "children"});
  for (const ExplainCandidate& c : e.candidates) {
    table.AddRow({std::to_string(c.rank), Fmt(c.score, 4),
                  c.chosen ? "<== winner" : "", c.in_top_k ? "y" : "",
                  std::to_string(c.skips), ChildrenList(c)});
  }
  out << table.Render();

  // Per-position decomposition of the winner (or the top-ranked candidate
  // when nothing was chosen).
  const ExplainCandidate* detail = nullptr;
  for (const ExplainCandidate& c : e.candidates) {
    if (c.chosen) detail = &c;
  }
  if (detail == nullptr && !e.candidates.empty()) detail = &e.candidates[0];
  if (detail != nullptr) {
    out << "\nscore breakdown of rank " << detail->rank << ":\n";
    TextTable breakdown;
    breakdown.SetHeader({"pos", "backend", "child", "gap us", "timing lp",
                         "discrete lp", "thread"});
    const ScoreBreakdown& b = detail->breakdown;
    for (std::size_t i = 0; i < b.positions.size(); ++i) {
      const ScoreBreakdown::Position& p = b.positions[i];
      breakdown.AddRow(
          {std::to_string(p.stage) + "." + std::to_string(p.call),
           p.service + " " + p.endpoint,
           p.skipped ? "skip" : std::to_string(p.child),
           p.skipped ? "-" : Fmt(p.gap_ns / 1e3, 1),
           p.skipped ? "-" : Fmt(p.timing_lp, 4), Fmt(p.discrete_lp, 4),
           p.thread_bonus != 0.0 ? Fmt(p.thread_bonus, 2) : ""});
    }
    if (b.has_response) {
      breakdown.AddRow({"resp", "", "", Fmt(b.response_gap_ns / 1e3, 1),
                        Fmt(b.response_lp, 4), "", ""});
    }
    breakdown.AddRow({"total", "", "", "", Fmt(b.total, 4), "", ""});
    out << breakdown.Render();
  }

  if (!e.conflicts.empty()) {
    out << "\nMWIS conflict neighbors (same batch, contested children):\n";
    TextTable conflicts;
    conflicts.SetHeader({"parent", "handler", "shared children"});
    for (const ExplainConflict& c : e.conflicts) {
      conflicts.AddRow({std::to_string(c.parent), c.service + " " + c.endpoint,
                        std::to_string(c.shared_children)});
    }
    out << conflicts.Render();
  }
  return out.str();
}

std::string ExplainJson(const ExplainCapture& e) {
  std::string out = "{\"schema\":\"traceweaver.explain.v1\",";
  out += "\"found\":" + std::string(e.found ? "true" : "false") + ",";
  out += "\"parent\":" + json::Str(Id(e.parent)) + ",";
  out += "\"service\":" + json::Str(e.service) + ",";
  out += "\"endpoint\":" + json::Str(e.endpoint) + ",";
  out += "\"candidates_enumerated\":" + std::to_string(e.candidates_enumerated) + ",";
  out += "\"batch\":" + std::to_string(e.batch) + ",";
  out += "\"batch_size\":" + std::to_string(e.batch_size) + ",";
  out += "\"chosen_rank\":" + std::to_string(e.chosen_rank) + ",";
  out += "\"candidates\":[";
  for (std::size_t i = 0; i < e.candidates.size(); ++i) {
    const ExplainCandidate& c = e.candidates[i];
    if (i > 0) out += ',';
    out += "{\"rank\":" + std::to_string(c.rank) + ",";
    out += "\"score\":" + json::Fixed(c.score) + ",";
    out += "\"chosen\":" + std::string(c.chosen ? "true" : "false") + ",";
    out += "\"in_top_k\":" + std::string(c.in_top_k ? "true" : "false") + ",";
    out += "\"skips\":" + std::to_string(c.skips) + ",";
    out += "\"children\":[";
    for (std::size_t j = 0; j < c.children.size(); ++j) {
      if (j > 0) out += ',';
      out += json::Str(c.children[j] == kSkippedChild
                           ? std::string("skip")
                           : std::to_string(c.children[j]));
    }
    out += "],\"breakdown\":{\"positions\":[";
    const ScoreBreakdown& b = c.breakdown;
    for (std::size_t j = 0; j < b.positions.size(); ++j) {
      const ScoreBreakdown::Position& p = b.positions[j];
      if (j > 0) out += ',';
      out += "{\"stage\":" + std::to_string(p.stage) + ",";
      out += "\"call\":" + std::to_string(p.call) + ",";
      out += "\"service\":" + json::Str(p.service) + ",";
      out += "\"endpoint\":" + json::Str(p.endpoint) + ",";
      out += "\"child\":" + json::Str(p.skipped ? std::string("skip")
                                                : std::to_string(p.child)) +
             ",";
      out += "\"skipped\":" + std::string(p.skipped ? "true" : "false") + ",";
      out += "\"gap_ns\":" + json::Fixed(p.gap_ns) + ",";
      out += "\"timing_lp\":" + json::Fixed(p.timing_lp) + ",";
      out += "\"discrete_lp\":" + json::Fixed(p.discrete_lp) + ",";
      out += "\"thread_bonus\":" + json::Fixed(p.thread_bonus) + "}";
    }
    out += "],\"has_response\":" +
           std::string(b.has_response ? "true" : "false") + ",";
    out += "\"response_gap_ns\":" + json::Fixed(b.response_gap_ns) + ",";
    out += "\"response_lp\":" + json::Fixed(b.response_lp) + ",";
    out += "\"total\":" + json::Fixed(b.total) + "}}";
  }
  out += "],\"conflicts\":[";
  for (std::size_t i = 0; i < e.conflicts.size(); ++i) {
    const ExplainConflict& c = e.conflicts[i];
    if (i > 0) out += ',';
    out += "{\"parent\":" + json::Str(Id(c.parent)) + ",";
    out += "\"service\":" + json::Str(c.service) + ",";
    out += "\"endpoint\":" + json::Str(c.endpoint) + ",";
    out += "\"shared_children\":" + std::to_string(c.shared_children) + "}";
  }
  out += "]}\n";
  return out;
}

}  // namespace traceweaver
