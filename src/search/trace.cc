#include "search/trace.h"

#include <sstream>

namespace foofah {

namespace {

// Escapes a label for DOT double-quoted strings.
std::string DotEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

SearchTraceRecorder::NodeRecord* SearchTraceRecorder::FindNode(int id) {
  for (NodeRecord& node : nodes_) {
    if (node.id == id) return &node;
  }
  return nullptr;
}

void SearchTraceRecorder::OnExpand(int node, const Table& state,
                                   uint32_t depth) {
  (void)state;
  if (node == 0 && nodes_.empty()) {
    // The root is expanded before any generation callback names it.
    NodeRecord root;
    root.id = 0;
    root.label = "e_i";
    root.depth = 0;
    nodes_.push_back(root);
  }
  if (NodeRecord* record = FindNode(node)) {
    record->expanded = true;
    record->depth = depth;
  }
}

void SearchTraceRecorder::OnGenerate(int node, int parent,
                                     const Operation& operation,
                                     double heuristic, bool is_goal) {
  if (nodes_.empty()) {
    NodeRecord root;
    root.id = 0;
    root.label = "e_i";
    nodes_.push_back(root);
  }
  if (nodes_.size() >= max_nodes_) {
    ++dropped_events_;
    return;
  }
  NodeRecord record;
  record.id = node;
  record.parent = parent;
  record.label = operation.ToString();
  record.heuristic = heuristic;
  record.goal = is_goal;
  nodes_.push_back(record);
}

void SearchTraceRecorder::OnPrune(int parent, const Operation& operation,
                                  PruneReason reason) {
  if (rejected_.size() >= max_nodes_ * 4 || FindNode(parent) == nullptr) {
    ++dropped_events_;
    return;
  }
  rejected_.push_back(EdgeRecord{parent, operation.ToString(), false, reason});
}

void SearchTraceRecorder::OnDuplicate(int parent, const Operation& operation) {
  if (rejected_.size() >= max_nodes_ * 4 || FindNode(parent) == nullptr) {
    ++dropped_events_;
    return;
  }
  rejected_.push_back(
      EdgeRecord{parent, operation.ToString(), true, PruneReason::kKept});
}

std::string SearchTraceRecorder::ToDot() const {
  std::ostringstream out;
  out << "digraph foofah_search {\n";
  out << "  rankdir=TB;\n  node [fontsize=10, shape=box];\n";
  for (const NodeRecord& node : nodes_) {
    out << "  n" << node.id << " [label=\"" << DotEscape(node.label);
    if (node.id != 0) out << "\\nh=" << node.heuristic;
    out << "\"";
    if (node.goal) out << ", peripheries=2, color=darkgreen";
    if (node.expanded) out << ", style=bold";
    out << "];\n";
    if (node.parent >= 0) {
      out << "  n" << node.parent << " -> n" << node.id << ";\n";
    }
  }
  int pseudo = 0;
  for (const EdgeRecord& edge : rejected_) {
    std::string id = "r" + std::to_string(pseudo++);
    if (edge.duplicate) {
      out << "  " << id << " [label=\"" << DotEscape(edge.label)
          << "\\n(duplicate)\", style=dotted, color=gray, fontcolor=gray];\n";
      out << "  n" << edge.parent << " -> " << id
          << " [style=dotted, color=gray];\n";
    } else {
      out << "  " << id << " [label=\"" << DotEscape(edge.label) << "\\n("
          << PruneReasonName(edge.reason)
          << ")\", style=dashed, color=red3, fontcolor=red3];\n";
      out << "  n" << edge.parent << " -> " << id
          << " [style=dashed, color=red3];\n";
    }
  }
  if (dropped_events_ > 0) {
    out << "  overflow [label=\"+" << dropped_events_
        << " events beyond cap\", shape=plaintext];\n";
  }
  out << "}\n";
  return out.str();
}

std::string SearchTraceRecorder::ToText() const {
  std::ostringstream out;
  for (const NodeRecord& node : nodes_) {
    out << "node " << node.id;
    if (node.parent >= 0) out << " <- " << node.parent;
    out << ": " << node.label;
    if (node.id != 0) out << " h=" << node.heuristic;
    if (node.expanded) out << " [expanded]";
    if (node.goal) out << " [goal]";
    out << "\n";
  }
  size_t pruned = 0;
  size_t duplicates = 0;
  for (const EdgeRecord& edge : rejected_) {
    (edge.duplicate ? duplicates : pruned)++;
  }
  out << "rejected: " << pruned << " pruned, " << duplicates
      << " duplicates";
  if (dropped_events_ > 0) out << " (+" << dropped_events_ << " beyond cap)";
  out << "\n";
  return out.str();
}

}  // namespace foofah
