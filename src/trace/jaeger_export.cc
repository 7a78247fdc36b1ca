#include "trace/jaeger_export.h"

#include <cstdio>
#include <map>
#include <sstream>

#include "util/json.h"

namespace traceweaver {
namespace {

std::string Hex(SpanId id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

/// Emits one Jaeger span object. `parent` is kInvalidSpanId for the root.
void AppendSpan(std::string& out, const Span& s, SpanId parent,
                const std::string& trace_id,
                const std::map<std::string, std::string>& process_ids,
                const std::map<SpanId, JaegerSpanTags>* quality) {
  out += "{\"traceID\":\"" + trace_id + "\",";
  out += "\"spanID\":\"" + Hex(s.id) + "\",";
  out += "\"operationName\":" + json::Str(s.endpoint) + ",\"references\":[";
  if (parent != kInvalidSpanId) {
    out += "{\"refType\":\"CHILD_OF\",\"traceID\":\"" + trace_id +
           "\",\"spanID\":\"" + Hex(parent) + "\"}";
  }
  out += "],";
  // Jaeger timestamps are microseconds since epoch; use the callee-side
  // window, which is what the paper calls the span.
  out += "\"startTime\":" + std::to_string(s.server_recv / kNsPerUs) + ",";
  out += "\"duration\":" + std::to_string(s.ServerDuration() / kNsPerUs) +
         ",";
  out += "\"processID\":\"" + process_ids.at(s.callee) + "\",";
  out += "\"tags\":[{\"key\":\"caller\",\"type\":\"string\",\"value\":" +
         json::Str(s.caller) +
         "},{\"key\":\"replica\",\"type\":\"int64\",\"value\":" +
         std::to_string(s.callee_replica) + "}";
  if (quality != nullptr) {
    const auto it = quality->find(s.id);
    if (it != quality->end()) {
      const JaegerSpanTags& t = it->second;
      out += ",{\"key\":\"tw.confidence\",\"type\":\"float64\",\"value\":" +
             json::Fixed(t.confidence) + "}";
      out += ",{\"key\":\"tw.runner_up_margin\",\"type\":\"float64\","
             "\"value\":" + json::Fixed(t.runner_up_margin) + "}";
      out += ",{\"key\":\"tw.candidates_considered\",\"type\":\"int64\","
             "\"value\":" + std::to_string(t.candidates_considered) + "}";
    }
  }
  out += "]}";
}

}  // namespace

std::string TraceToJaegerObject(
    const TraceForest& forest, std::size_t root_node,
    const std::map<SpanId, JaegerSpanTags>* quality) {
  const Span& root = forest.span_of(forest.nodes()[root_node]);
  const std::string trace_id = Hex(root.id);

  // Collect the subtree and assign process ids per service.
  const std::vector<SpanId> ids = forest.SubtreeSpanIds(root_node);
  std::map<std::string, std::string> process_ids;
  for (SpanId id : ids) {
    const Span& s = forest.span_by_id(id);
    if (process_ids.count(s.callee) == 0) {
      process_ids.emplace(
          s.callee, "p" + std::to_string(process_ids.size() + 1));
    }
  }

  // Parent lookup within the subtree.
  std::map<SpanId, SpanId> parent_of;
  std::vector<std::size_t> stack{root_node};
  while (!stack.empty()) {
    const std::size_t n = stack.back();
    stack.pop_back();
    for (std::size_t c : forest.nodes()[n].children) {
      parent_of[forest.nodes()[c].span] = forest.nodes()[n].span;
      stack.push_back(c);
    }
  }

  std::string out = "{\"traceID\":\"" + trace_id + "\",\"spans\":[";
  bool first = true;
  for (SpanId id : ids) {
    if (!first) out += ',';
    first = false;
    const auto pit = parent_of.find(id);
    AppendSpan(out, forest.span_by_id(id),
               pit == parent_of.end() ? kInvalidSpanId : pit->second,
               trace_id, process_ids, quality);
  }
  out += "],\"processes\":{";
  first = true;
  for (const auto& [service, pid] : process_ids) {
    if (!first) out += ',';
    first = false;
    out += "\"" + pid + "\":{\"serviceName\":" + json::Str(service) + "}";
  }
  out += "}}";
  return out;
}

std::string TracesToJaegerJson(
    const std::vector<Span>& spans, const ParentAssignment& assignment,
    const std::map<SpanId, JaegerSpanTags>* quality) {
  TraceForest forest(spans, assignment);
  std::string out = "{\"data\":[";
  bool first = true;
  for (std::size_t root : forest.roots()) {
    if (!first) out += ',';
    first = false;
    out += TraceToJaegerObject(forest, root, quality);
  }
  out += "]}";
  return out;
}

}  // namespace traceweaver
