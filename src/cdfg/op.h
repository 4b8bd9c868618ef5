// op.h — operation kinds for CDFG nodes.
//
// The paper's computational model is homogeneous synchronous data flow
// (SDF): every node consumes and produces exactly one sample per firing.
// Nodes carry an operation kind; the watermarking protocol's third node
// ordering criterion (C3) needs a unique integer identifier per distinct
// functionality ("addition is identified with 1, multiplication with 2,
// etc."), which functional_id() provides.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace lwm::cdfg {

/// Operation performed by a CDFG node.
///
/// The set covers the DSP/communications workloads the paper targets
/// (filters, transforms, codecs) plus the control/memory operations needed
/// to model VLIW instruction streams for the Table I experiments.
enum class OpKind : std::uint8_t {
  kInput,    ///< primary input (source; no fan-in)
  kOutput,   ///< primary output (sink; no fan-out)
  kConst,    ///< compile-time constant (source)
  kAdd,      ///< addition
  kSub,      ///< subtraction
  kMul,      ///< multiplication
  kDiv,      ///< division
  kShift,    ///< constant shift (the paper's IIR example uses shifts as
             ///< cheap constant multiplications)
  kAnd,      ///< bitwise and
  kOr,       ///< bitwise or
  kXor,      ///< bitwise xor
  kNot,      ///< bitwise not
  kCmp,      ///< comparison
  kMux,      ///< 2:1 data select
  kLoad,     ///< memory read
  kStore,    ///< memory write
  kBranch,   ///< control-flow operation
  kUnit,     ///< watermark-inserted unit operation ("additions with
             ///< variables assigned to zero at runtime", paper §V)
};

/// Number of distinct OpKind values (for table sizing / iteration).
inline constexpr int kNumOpKinds = static_cast<int>(OpKind::kUnit) + 1;

/// Functional-unit class an operation executes on.  Drives both the
/// resource-constrained schedulers and the 4-issue VLIW model of §V
/// (4 arithmetic-logic units, 2 branch units, 2 memory units).
enum class UnitClass : std::uint8_t {
  kNone,    ///< pseudo-operations (inputs, outputs, constants) use no unit
  kAlu,     ///< add/sub/logic/compare/shift/mux/unit-op
  kMul,     ///< multiplier (and divider)
  kMem,     ///< load/store unit
  kBranch,  ///< branch unit
};

inline constexpr int kNumUnitClasses = static_cast<int>(UnitClass::kBranch) + 1;

/// Unique integer identifier of the functionality performed by an
/// operation — the f(n_a) of ordering criterion C3.  Pseudo-operations
/// (inputs/outputs/constants) get distinct ids too so that node ordering
/// remains a total order on any subtree.
constexpr int functional_id(OpKind k) noexcept { return static_cast<int>(k) + 1; }

/// Functional-unit class required by an operation.
UnitClass unit_class(OpKind k) noexcept;

/// Human-readable unit-class label ("alu", "mul", ...).
std::string_view unit_class_name(UnitClass c) noexcept;

/// True for operations that appear as real instructions in a compiled
/// stream (everything except kInput/kOutput/kConst).
bool is_executable(OpKind k) noexcept;

/// True for source pseudo-operations (no fan-in expected).
bool is_source(OpKind k) noexcept;

/// True for sink pseudo-operations (no fan-out expected).
bool is_sink(OpKind k) noexcept;

/// Short mnemonic ("add", "mul", ...) used by the text serializer.
/// Stable: the serialized format depends on these strings.
std::string_view op_name(OpKind k) noexcept;

/// Inverse of op_name(); empty if the mnemonic is unknown.
std::optional<OpKind> op_from_name(std::string_view name) noexcept;

/// Default latency, in control steps, of an operation.  The paper's
/// experiments use unit-latency operations (homogeneous SDF); multipliers
/// may be configured slower by client code via Node::delay.
int default_delay(OpKind k) noexcept;

}  // namespace lwm::cdfg
