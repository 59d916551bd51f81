// Forward set-valued simulation of the two local time frames over the
// decomposed model — the functional core shared by TDgen's implication
// bootstrap, TDsim's fault-injection checks, and the end-to-end verifier.
//
// Because the tables never create a carrier from carrier-free operands, a
// carrier can appear in the result only downstream of the injected fault
// site; with no fault injected the simulation is a plain two-frame hazard
// analysis.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "algebra/model.hpp"
#include "algebra/tables.hpp"
#include "algebra/value_set.hpp"
#include "sim/worklist.hpp"

namespace gdf::alg {

/// A targeted gate delay fault: slow-to-rise or slow-to-fall at one line.
struct FaultSpec {
  NodeId site = kNoNode;
  bool slow_to_rise = true;
};

/// Primary/pseudo-primary input stimulus for the two frames, as value sets
/// (callers encode known bits as singletons and unknowns as wider sets).
struct TwoFrameStimulus {
  std::vector<VSet> pi_sets;   ///< one per PI, Netlist::inputs() order
  std::vector<VSet> ppi_sets;  ///< one per FF, Netlist::dffs() order
};

/// Outcome of TwoFrameSim::settle_registers.
struct RegisterSettle {
  /// False when some PPI has no register-consistent value left.
  bool consistent = true;
  /// Replays after the first pass: rounds whose pruned PPI finals differed
  /// from the sets the previous pass had settled.
  int resettles = 0;
};

/// Builds the {0,1,R,F} subset compatible with the given frame bits
/// (-1 = unknown). Used to encode concrete (V1, V2) pairs.
VSet vset_primary_from_frames(int initial_bit, int final_bit);

class TwoFrameSim {
 public:
  /// Scenario capacity of one forced_sweep call: one VSet byte lane per
  /// scenario, eight per 64-bit word, as many as the returned mask holds.
  static constexpr unsigned kPackedLanes = 64;

  explicit TwoFrameSim(const AtpgModel& model, const DelayAlgebra& algebra)
      : model_(&model), algebra_(&algebra) {}

  /// Computes the value set of every node. `fault` may be null for a
  /// fault-free pass. Sets over-approximate reachable values, so a result
  /// set contained in {Rc,Fc} proves guaranteed fault observation.
  void run(const TwoFrameStimulus& stimulus, const FaultSpec* fault,
           std::vector<VSet>& node_sets) const;

  /// True if the fault is guaranteed observed at some observation point
  /// (PO or PPO) under the stimulus; observation points forced to a
  /// carrier are appended to `where` if non-null.
  bool guaranteed_observation(const TwoFrameStimulus& stimulus,
                              const FaultSpec& fault,
                              std::vector<NodeId>* where = nullptr) const;

  /// Like run() without a fault, but with node `forced`'s value set
  /// overridden to `forced_set` before its fanout is evaluated. Used by
  /// critical path tracing to ask "what if this line carried the fault
  /// effect".
  void run_forced(const TwoFrameStimulus& stimulus, NodeId forced,
                  VSet forced_set, std::vector<VSet>& node_sets) const;

  /// Like run() with a fault, but starting from an already-computed
  /// fault-free pass over the same stimulus: only the site's fanout cone is
  /// re-evaluated. Exactly equivalent to run(stimulus, &fault, node_sets).
  void run_injected(std::span<const VSet> baseline, const FaultSpec& fault,
                    std::vector<VSet>& node_sets) const;

  /// Incremental settle: `node_sets` holds a settled pass (under `fault`)
  /// and `changed` lists source nodes whose raw stimulus set is replaced.
  /// Re-evaluates only the affected cones (dirty worklist over the
  /// topological node order — cost is the cone, not the circuit); the
  /// result is exactly what run() with the updated stimulus would produce.
  void rerun_sources(std::span<const std::pair<NodeId, VSet>> changed,
                     const FaultSpec* fault,
                     std::vector<VSet>& node_sets) const;

  /// The register fixpoint of a two-frame pass. A PPI's final-frame value
  /// is produced by the register from its PPO's initial-frame value, so
  /// each PPI's finals in `stimulus.ppi_sets` are pruned to the initials
  /// its PPO can take, until stable. On return the stimulus holds the
  /// pruned sets and `node_sets` exactly run() of them — unless the result
  /// is inconsistent, in which case both are unspecified (`node_sets` is
  /// still a settled pass under some stimulus).
  ///
  /// `warm` reuses `node_sets`, a settled pass under `fault`, and usually
  /// settles in one replay: an initial-frame value depends only on the
  /// initial-frame values of its sources, so the PPO initials — and with
  /// them the pruned finals — do not depend on which finals the PPIs hold
  /// as long as their initials are kept. The replay therefore guesses each
  /// PPI's finals from the sets `node_sets` already holds (the previous
  /// pruned ones), prunes against that, and replays again only the PPIs
  /// whose pruned set differs from the guess. Otherwise a full run() of the
  /// unpruned stimulus comes first.
  RegisterSettle settle_registers(TwoFrameStimulus& stimulus,
                                  const FaultSpec* fault,
                                  std::vector<VSet>& node_sets,
                                  bool warm) const;

  /// One what-if scenario of a batched stem sweep: `node`'s value set is
  /// replaced by `set` before its fanout is evaluated. When `stop` names a
  /// node, the scenario's propagation is truncated there and its value at
  /// `stop` is reported instead of a PO verdict — the hook for
  /// dominator-aware stem marks (every path to an observation point passes
  /// the stop node, so the value there decides the scenario).
  struct ForcedLane {
    NodeId node = kNoNode;
    VSet set = kEmptySet;
    NodeId stop = kNoNode;
  };

  /// Batched run_forced over a shared fault-free baseline: up to
  /// kPackedLanes independent scenarios evaluated in one packed
  /// cone sweep (one byte lane per scenario, eight lanes per 64-bit word).
  /// For lanes without a stop node, the returned bitmask has bit i set
  /// when scenario i forces a carrier-only value at some primary output.
  /// For lanes with one, stop_values[i] (which must have one entry per
  /// lane) receives the scenario's settled value at its stop node —
  /// baseline when the wave never reaches it — and the mask bit stays
  /// clear.
  std::uint64_t forced_sweep(std::span<const VSet> baseline,
                             std::span<const ForcedLane> lanes,
                             std::span<VSet> stop_values) const;

  /// forced_sweep without truncation — every lane reports the PO verdict.
  std::uint64_t forced_po_carrier_mask(
      std::span<const VSet> baseline,
      std::span<const ForcedLane> lanes) const {
    return forced_sweep(baseline, lanes, {});
  }

 private:
  /// Re-evaluates the fanout cone of `from` inside `node_sets`, whose value
  /// at `from` has already been overridden (everything upstream holds
  /// baseline values).
  void replay_cone(NodeId from, std::vector<VSet>& node_sets) const;

  const AtpgModel* model_;
  const DelayAlgebra* algebra_;
  /// Scratch for the cone-replay paths (not thread-safe, like the engines
  /// that own this simulator). The worklist resets in O(previous wave),
  /// so replays carry no per-call O(nodes) cost.
  mutable sim::BitQueue work_;
  /// settle_registers scratch: the PPI sets the current pass settled, and
  /// the source changes handed to rerun_sources.
  mutable std::vector<VSet> settled_ppis_;
  mutable std::vector<std::pair<NodeId, VSet>> source_changes_;
  mutable std::vector<std::uint64_t> packed_;
  mutable std::vector<std::uint64_t> lane_dirty_;
  mutable std::vector<std::uint64_t> lane_forced_;
  mutable std::vector<std::uint64_t> lane_stamp_;
  mutable std::uint64_t lane_epoch_ = 0;
};

}  // namespace gdf::alg
