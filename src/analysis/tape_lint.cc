#include "src/analysis/tape_lint.h"

#include <string>

namespace rgae {

namespace {

std::string NodeLabel(const TapeNodeView& v) {
  return "#" + std::to_string(v.id) + " (" + v.op + ", " +
         std::to_string(v.rows) + "x" + std::to_string(v.cols) + ")";
}

}  // namespace

int TapeLintReport::Count(TapeLintFinding::Kind kind) const {
  int n = 0;
  for (const TapeLintFinding& f : findings) {
    if (f.kind == kind) ++n;
  }
  return n;
}

std::string TapeLintReport::Format() const {
  if (findings.empty()) return "tape lint: clean";
  std::string out =
      "tape lint: " + std::to_string(findings.size()) + " finding(s)";
  for (const TapeLintFinding& f : findings) out += "\n  " + f.message;
  return out;
}

TapeLintReport LintTape(const Tape& tape, Var loss,
                        const std::vector<Parameter*>& params) {
  TapeLintReport report;
  const std::vector<TapeNodeView> views = tape.NodeViews();
  const int n = static_cast<int>(views.size());

  if (loss.tape != &tape || loss.id < 0 || loss.id >= n) {
    report.findings.push_back(
        {TapeLintFinding::Kind::kInvalidLoss, loss.id, nullptr,
         "loss Var is invalid or belongs to another tape"});
    return report;
  }
  if (views[loss.id].rows != 1 || views[loss.id].cols != 1) {
    report.findings.push_back(
        {TapeLintFinding::Kind::kInvalidLoss, loss.id, nullptr,
         "loss node " + NodeLabel(views[loss.id]) + " is not scalar"});
    return report;
  }

  // Nodes only reference earlier nodes, so a single reverse sweep marks
  // every node whose value feeds the loss. Backward differentiates every
  // input edge, so these are also exactly the nodes that receive a gradient.
  std::vector<char> reach(n, 0);
  reach[loss.id] = 1;
  for (int id = loss.id; id >= 0; --id) {
    if (!reach[id]) continue;
    for (const int in : views[id].inputs) {
      if (in >= 0) reach[in] = 1;
    }
  }

  for (int id = 0; id < n; ++id) {
    if (reach[id]) continue;
    report.findings.push_back(
        {TapeLintFinding::Kind::kDeadNode, id, nullptr,
         "dead node " + NodeLabel(views[id]) +
             ": value never reaches the loss"});
  }

  for (size_t p = 0; p < params.size(); ++p) {
    const Parameter* param = params[p];
    int first_leaf = -1;
    bool reached = false;
    for (const TapeNodeView& v : views) {
      if (v.param != param) continue;
      if (first_leaf < 0) first_leaf = v.id;
      if (reach[v.id]) {
        reached = true;
        break;
      }
    }
    const std::string label = "parameter [" + std::to_string(p) + "] " +
                              param->value.ShapeString();
    if (first_leaf < 0) {
      report.findings.push_back(
          {TapeLintFinding::Kind::kParamNotOnTape, -1, param,
           label + ": no Leaf registered on this tape"});
    } else if (!reached) {
      report.findings.push_back(
          {TapeLintFinding::Kind::kParamNoGradPath, first_leaf, param,
           label + ": leaf " + NodeLabel(views[first_leaf]) +
               " receives no gradient from the loss"});
    }
  }

  return report;
}

}  // namespace rgae
