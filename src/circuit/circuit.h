// Arithmetic circuits over F_p.
//
// The MPC protocol evaluates circuits of input, linear (add / sub /
// constant-multiply / constant-add) and multiplication gates, with a set of
// public output wires. The builder assigns wire ids in topological order;
// mult_level() gives the multiplicative depth layering the MPC layer uses
// to batch Beaver multiplications.
#pragma once

#include <map>
#include <vector>

#include "field/fp.h"
#include "util/assert.h"

namespace nampc {

enum class GateOp { input, constant, add, sub, cmul, cadd, mul };

struct Gate {
  GateOp op = GateOp::constant;
  int a = -1;           ///< first operand wire
  int b = -1;           ///< second operand wire
  Fp c;                 ///< constant (constant / cmul / cadd)
  int owner = -1;       ///< input gates: the providing party
  int input_index = 0;  ///< input gates: index within the owner's inputs
};

class Circuit {
 public:
  /// Adds an input wire owned by `party` (its `k`-th input, assigned in
  /// call order).
  int input(int party);
  int constant(Fp value);
  int add(int a, int b) { return binary(GateOp::add, a, b); }
  int sub(int a, int b) { return binary(GateOp::sub, a, b); }
  int mul(int a, int b);
  int cmul(Fp c, int a);
  int cadd(Fp c, int a);

  /// Marks a wire as an output. `owner` = -1 (default) makes it public;
  /// otherwise only that party learns the value (reconstructed via
  /// Π_privRec instead of public opening).
  void mark_output(int wire, int owner = -1);

  [[nodiscard]] int num_wires() const { return static_cast<int>(gates_.size()); }
  [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }
  [[nodiscard]] const std::vector<int>& outputs() const { return outputs_; }
  /// Owner of output k: -1 = public.
  [[nodiscard]] int output_owner(int k) const {
    return output_owners_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] int num_multiplications() const { return num_mult_; }
  [[nodiscard]] int num_inputs_of(int party) const {
    const auto it = inputs_per_party_.find(party);
    return it == inputs_per_party_.end() ? 0 : it->second;
  }
  [[nodiscard]] int multiplicative_depth() const { return max_level_; }
  /// Level of a wire: multiplication gates at level L consume only wires of
  /// level < L, so all of level L can run as one Beaver batch.
  [[nodiscard]] int level(int wire) const {
    return levels_[static_cast<std::size_t>(wire)];
  }

  /// Plaintext evaluation (reference semantics for tests/examples):
  /// inputs[p] are party p's input values in declaration order.
  [[nodiscard]] FpVec eval_plain(
      const std::map<int, FpVec>& inputs) const;

 private:
  int binary(GateOp op, int a, int b);
  int push(Gate g, int lvl);
  void check_wire(int w) const {
    NAMPC_REQUIRE(w >= 0 && w < num_wires(), "wire id out of range");
  }

  std::vector<Gate> gates_;
  std::vector<int> levels_;
  std::vector<int> outputs_;
  std::vector<int> output_owners_;
  std::map<int, int> inputs_per_party_;
  int num_mult_ = 0;
  int max_level_ = 0;
};

}  // namespace nampc
