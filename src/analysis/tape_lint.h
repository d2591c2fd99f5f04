#ifndef RGAE_ANALYSIS_TAPE_LINT_H_
#define RGAE_ANALYSIS_TAPE_LINT_H_

#include <string>
#include <vector>

#include "src/tensor/autograd.h"

namespace rgae {

/// One defect found by `LintTape`.
struct TapeLintFinding {
  enum class Kind {
    /// The loss handle is invalid, from another tape, or not scalar.
    kInvalidLoss,
    /// A recorded node whose value never feeds the loss (dead subgraph —
    /// wasted compute at best, a forgotten loss term at worst).
    kDeadNode,
    /// A registered parameter with no `Leaf` on this tape at all.
    kParamNotOnTape,
    /// A parameter whose leaves all sit on dead subgraphs (the classic
    /// "frozen encoder" bug: the leaf is recorded, but `Backward` will never
    /// update it).
    kParamNoGradPath,
  };

  Kind kind;
  /// Offending node (kDeadNode; first affected leaf for the param kinds).
  int node_id = -1;
  /// Offending parameter (param kinds only).
  const Parameter* param = nullptr;
  std::string message;
};

/// Result of a `LintTape` audit.
struct TapeLintReport {
  std::vector<TapeLintFinding> findings;

  bool clean() const { return findings.empty(); }
  int Count(TapeLintFinding::Kind kind) const;
  /// One finding per line, or "tape lint: clean".
  std::string Format() const;
};

/// Dataflow audit of a recorded tape, run after a forward pass (before or
/// after `Backward`). Reports dead nodes unreached by `loss`, and — for each
/// entry of `params` (typically `model->Params()`) — parameters that were
/// never registered with `Tape::Leaf` or whose leaves receive no gradient
/// from the loss. Parameters intentionally excluded from gradient training
/// (e.g. GMM-VGAE's EM-owned mixture, which the loss reads as external
/// constants) are never registered, so they report `kParamNotOnTape`; omit
/// them from `params` or treat those findings as expected.
///
/// Invalid and foreign-tape `Var`s cannot occur inside a recorded tape (ops
/// reject them with `TapeError` at creation), so the audit only has to
/// validate the `loss` handle itself.
TapeLintReport LintTape(const Tape& tape, Var loss,
                        const std::vector<Parameter*>& params);

}  // namespace rgae

#endif  // RGAE_ANALYSIS_TAPE_LINT_H_
