// template_lib.h — module/template library for template matching.
//
// In template mapping at the behavioral level, "groups of primitive
// operations are replaced with more complex and specialized hardware
// units" (paper §IV-B).  A Template is a rooted operation tree: the root
// produces the module's output, internal edges are hard-wired value paths
// that disappear inside the module, and the leaves' missing operands are
// the module's input ports.
#pragma once

#include <string>
#include <vector>

#include "cdfg/op.h"

namespace lwm::tmatch {

/// One operation inside a template tree.
struct TemplateOp {
  cdfg::OpKind kind = cdfg::OpKind::kAdd;
  /// Indices (into Template::ops) of the operand subtrees hard-wired into
  /// this op.  Operand slots not listed here are external input ports.
  std::vector<int> children;
};

/// A rooted operation tree implementable as one hardware module.
struct Template {
  std::string name;
  std::vector<TemplateOp> ops;  ///< ops[0] is the root
  double area = 1.0;            ///< relative area cost of one instance
};

/// An ordered collection of templates; index = template id.
class TemplateLibrary {
 public:
  /// Adds a template; returns its id.  Validates tree shape (children
  /// in range, acyclic, all ops reachable from the root).
  int add(Template t);

  [[nodiscard]] const Template& at(int id) const { return templates_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] int size() const { return static_cast<int>(templates_.size()); }

  /// A library in the spirit of the paper's Fig. 4 datapath libraries:
  /// single-op modules for every arithmetic kind used by the benchmark
  /// designs (add, sub, mul, shift) plus the composite modules
  ///   add2   — two chained adders (the paper's T_1),
  ///   mac    — multiplier feeding an adder,
  ///   shadd  — shifter feeding an adder,
  ///   addsub — adder feeding a subtractor.
  static TemplateLibrary standard();

  /// Only single-op modules — the covering baseline with no specialized
  /// hardware (every template-matching solution degenerates to 1 module
  /// per operation kind instance).
  static TemplateLibrary primitive();

 private:
  std::vector<Template> templates_;
};

}  // namespace lwm::tmatch
