// Forward set-valued simulation of the two local time frames over the
// decomposed model — the functional core shared by TDgen's implication
// bootstrap, TDsim's fault-injection checks, and the end-to-end verifier.
//
// Because the tables never create a carrier from carrier-free operands, a
// carrier can appear in the result only downstream of the injected fault
// site; with no fault injected the simulation is a plain two-frame hazard
// analysis.
#pragma once

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

/// Undo log of node-set writes, oldest first: each entry is a node and the
/// set it held before the write. Reverting a journaled replay costs its
/// writes, not another replay.
using SetJournal = std::vector<std::pair<NodeId, VSet>>;

/// Restores every write logged in `journal`, newest first, and empties it.
void revert(SetJournal& journal, std::vector<VSet>& node_sets);

/// Outcome of TwoFrameSim::settle_registers.
struct RegisterSettle {
  /// False when some PPI has no register-consistent value left.
  bool consistent = true;
  /// Replays after the first pass: rounds whose pruned PPI finals differed
  /// from the sets the previous pass had settled.
  int resettles = 0;
  /// Node evaluations spent: every gate of a full pass plus every node the
  /// cone replays popped.
  long evaluations = 0;
};

/// Builds the {0,1,R,F} subset compatible with the given frame bits
/// (-1 = unknown). Used to encode concrete (V1, V2) pairs.
VSet vset_primary_from_frames(int initial_bit, int final_bit);

class TwoFrameSim {
 public:
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

  /// Injects `fault` into `node_sets`, a fault-free run() over some
  /// stimulus: the site takes its carrier and only its fanout cone is
  /// re-evaluated, so the result is exactly run(stimulus, &fault,
  /// node_sets). Every write is logged to `journal`, so revert() hands the
  /// fault-free pass back for the next fault.
  void inject(const FaultSpec& fault, std::vector<VSet>& node_sets,
              SetJournal& journal) const;

  /// Incremental settle: `node_sets` holds a settled pass (under `fault`)
  /// and `changed` lists source nodes whose raw stimulus set is replaced.
  /// Re-evaluates only the affected cones (dirty worklist over the
  /// topological node order — cost is the cone, not the circuit); the
  /// result is exactly what run() with the updated stimulus would produce.
  /// Writes are logged to `journal` when given. Returns the number of
  /// node evaluations.
  long rerun_sources(std::span<const std::pair<NodeId, VSet>> changed,
                     const FaultSpec* fault, std::vector<VSet>& node_sets,
                     SetJournal* journal = nullptr) const;

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
  ///
  /// A warm settle logs every write to `journal` when given, consistent or
  /// not: revert() then restores `node_sets` to the pass it started from,
  /// which is how a rejected probe is undone without a replay. A cold
  /// settle rewrites every node and takes no journal.
  RegisterSettle settle_registers(TwoFrameStimulus& stimulus,
                                  const FaultSpec* fault,
                                  std::vector<VSet>& node_sets, bool warm,
                                  SetJournal* journal = nullptr) const;

 private:
  /// Drains the scheduled worklist over `node_sets`: pops readers of
  /// changed nodes in ascending order, re-evaluates them (applying the site
  /// transform at `fault`'s site) and schedules the readers of every node
  /// whose set changed. Returns the number of evaluations.
  long replay(std::vector<VSet>& node_sets, const FaultSpec* fault,
              SetJournal* journal) const;

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
};

}  // namespace gdf::alg
