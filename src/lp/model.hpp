// Mixed-integer linear model container (the Gurobi-like API layer).
//
// A Model stores variables (bounds + type), linear constraints and a single
// linear objective. It performs no solving itself: `LpSolver` handles
// the continuous relaxation and `milp::MilpSolver` handles integrality.
#pragma once

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "lp/expr.hpp"

namespace rfp::lp {

/// Value used for "no bound".
inline constexpr double kInfinity = 1e30;

enum class VarType { kContinuous, kBinary, kInteger };
enum class Sense { kLessEqual, kGreaterEqual, kEqual };
enum class ObjSense { kMinimize, kMaximize };

/// A stored constraint: terms · x  (sense)  rhs.
struct Constraint {
  std::vector<std::pair<int, double>> terms;  // (var index, coefficient), merged
  Sense sense = Sense::kLessEqual;
  double rhs = 0.0;
  std::string name;
};

/// Variable metadata.
struct VarInfo {
  double lb = 0.0;
  double ub = kInfinity;
  VarType type = VarType::kContinuous;
  std::string name;
};

class Model {
 public:
  // ---- construction ------------------------------------------------------
  Var addVar(double lb, double ub, VarType type, std::string name = "");
  Var addContinuous(double lb, double ub, std::string name = "");
  Var addBinary(std::string name = "");
  Var addInteger(double lb, double ub, std::string name = "");

  /// Adds `expr (sense) rhs`; the expression's constant is moved to the rhs.
  int addConstr(const LinExpr& expr, Sense sense, double rhs, std::string name = "");
  /// Adds `lo <= expr <= hi` as two rows (returns index of the first).
  int addRange(const LinExpr& expr, double lo, double hi, std::string name = "");

  void setObjective(const LinExpr& expr, ObjSense sense = ObjSense::kMinimize);

  // ---- accessors ---------------------------------------------------------
  [[nodiscard]] int numVars() const noexcept { return static_cast<int>(vars_.size()); }
  [[nodiscard]] int numConstrs() const noexcept { return static_cast<int>(constrs_.size()); }
  [[nodiscard]] const VarInfo& var(int i) const { return vars_.at(i); }
  [[nodiscard]] const Constraint& constr(int i) const { return constrs_.at(i); }
  [[nodiscard]] const std::vector<VarInfo>& vars() const noexcept { return vars_; }
  [[nodiscard]] const std::vector<Constraint>& constrs() const noexcept { return constrs_; }
  [[nodiscard]] const LinExpr& objective() const noexcept { return objective_; }
  [[nodiscard]] ObjSense objSense() const noexcept { return obj_sense_; }
  [[nodiscard]] bool hasIntegerVars() const noexcept;

  /// Mutates bounds (used by branch & bound and by tests).
  void setVarBounds(int i, double lb, double ub);

  // ---- evaluation --------------------------------------------------------
  [[nodiscard]] double evalObjective(std::span<const double> x) const;
  [[nodiscard]] double evalExpr(const LinExpr& e, std::span<const double> x) const;

  /// Full feasibility check of a candidate point (bounds, integrality and
  /// every constraint). Used by heuristics and as an independent verifier.
  [[nodiscard]] bool isFeasible(std::span<const double> x, double tol = 1e-6) const;

  /// Human-readable dump (for debugging small models in tests).
  [[nodiscard]] std::string toString() const;

 private:
  std::vector<VarInfo> vars_;
  std::vector<Constraint> constrs_;
  LinExpr objective_;
  ObjSense obj_sense_ = ObjSense::kMinimize;
};

}  // namespace rfp::lp
