// FAUSIM — the fault simulator integrated in SEMILET (paper §5, phases 1
// and 2 of the three-phase fault simulation):
//
//  1. good-machine simulation of the complete generated sequence, with the
//     X values left by test generation "set at random to 0 or 1";
//  2. "stuck-at fault simulation" of the propagation phase: a D value is
//     injected at each pseudo primary output that is not steady, and the
//     propagation frames are simulated to find which PPOs are observable
//     at a primary output. All injections run in batched dual-rail passes
//     (one lane per flip-flop plus the good machine).
//
// Phase 3 (delay fault simulation inside the fast frame) lives in TDsim.
//
// Phase 2 runs on the 64-lane dual-rail kernel (sim/parallel3.hpp): lane 0
// replays the good machine and each other lane flips one captured bit, so
// a pass covers 63 flip-flops and wider state vectors take several passes.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "base/rng.hpp"
#include "sim/flat_circuit.hpp"
#include "sim/parallel3.hpp"
#include "sim/seq_sim.hpp"

namespace gdf::fausim {

/// Gate-evaluation counters attributed per kernel (--stages prints them).
/// Lane-evals count bodies * 64 lanes; the scalar bucket counts plain
/// five-valued body evaluations.
struct KernelCounters {
  long scalar_evals = 0;   ///< phase-1 scalar good-machine kernel
  long lane_evals_64 = 0;  ///< phase-2 64-lane kernel
  /// Always 0; perfbench/atpg_bench.cpp still reads these two.
  long lane_evals_256 = 0;
  long lane_evals_512 = 0;

  void add(const KernelCounters& other) {
    scalar_evals += other.scalar_evals;
    lane_evals_64 += other.lane_evals_64;
  }
};

class Fausim {
 public:
  explicit Fausim(const net::Netlist& nl);
  /// Shares an already-built flat circuit form.
  explicit Fausim(std::shared_ptr<const sim::FlatCircuit> fc);

  struct GoodTrace {
    /// Input vectors with every X bit filled randomly (what the tester
    /// would apply).
    std::vector<sim::InputVec> filled;
    /// states[k] = state entering frame k (states[0] is all-X power-up);
    /// one more entry than frames (the final state).
    std::vector<sim::StateVec> states;
    /// Settled line values per frame.
    std::vector<std::vector<sim::Lv>> lines;
  };

  /// Phase 1: good-machine simulation from power-up. Deterministic in the
  /// caller's RNG.
  GoodTrace simulate_good(std::span<const sim::InputVec> frames,
                          Rng& rng) const;

  /// Phase 2: per flip-flop, whether a good/faulty difference captured at
  /// that flip-flop at the start of the propagation phase reaches a
  /// primary output. Flip-flops whose good value is X cannot carry a
  /// meaningful single-bit difference and report false.
  std::vector<bool> ppo_observability(
      const sim::StateVec& state_after_fast,
      std::span<const sim::InputVec> propagation_frames) const;

  /// Kernel work since the last harvest, attributed per kernel; resets
  /// the counters. Serialized by the caller like the simulators' scratch.
  KernelCounters take_kernel_counters();

  const net::Netlist& netlist() const { return fc_->netlist(); }

 private:
  std::shared_ptr<const sim::FlatCircuit> fc_;
  sim::SeqSimulator scalar_;
  sim::ParallelSim3 packed_;
  /// Phase-2 scratch, persisted so repeated passes do not reallocate.
  /// Instance-local behind the const API, like the scalar engine's
  /// buffers — never shared across threads.
  mutable std::vector<std::vector<sim::Word3>> pi_frames_;
  mutable std::vector<sim::Word3> state_;
  mutable std::vector<sim::Word3> lines_;
  mutable std::vector<sim::Word3> next_;
  mutable long scalar_evals_ = 0;
  mutable long lane_evals_ = 0;
};

}  // namespace gdf::fausim
