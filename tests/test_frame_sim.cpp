#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "algebra/frame_sim.hpp"
#include "base/rng.hpp"
#include "circuits/catalog.hpp"
#include "circuits/embedded.hpp"

namespace gdf::alg {
namespace {

TEST(PrimaryEncoding, FromFrameBits) {
  EXPECT_EQ(vset_primary_from_frames(0, 0), vset_of(V8::Zero));
  EXPECT_EQ(vset_primary_from_frames(0, 1), vset_of(V8::Rise));
  EXPECT_EQ(vset_primary_from_frames(1, 0), vset_of(V8::Fall));
  EXPECT_EQ(vset_primary_from_frames(1, 1), vset_of(V8::One));
  EXPECT_EQ(vset_primary_from_frames(-1, 1),
            static_cast<VSet>(vset_of(V8::One) | vset_of(V8::Rise)));
  EXPECT_EQ(vset_primary_from_frames(0, -1),
            static_cast<VSet>(vset_of(V8::Zero) | vset_of(V8::Rise)));
  EXPECT_EQ(vset_primary_from_frames(-1, -1), kPrimaryDomain);
}

class C17FrameSim : public ::testing::Test {
 protected:
  C17FrameSim()
      : nl_(circuits::make_c17()),
        model_(nl_),
        sim_(model_, robust_algebra()) {}

  VSet pi(int init, int fin) const {
    return vset_primary_from_frames(init, fin);
  }

  TwoFrameStimulus robust_stimulus() const {
    // N1=0, N2=1, N3=1 steady; N6 falls; N7=0. Slow-to-rise at N11 is
    // robustly observed at both POs (hand analysis in the test body).
    TwoFrameStimulus s;
    s.pi_sets = {pi(0, 0), pi(1, 1), pi(1, 1), pi(1, 0), pi(0, 0)};
    return s;
  }

  net::Netlist nl_;
  AtpgModel model_;
  TwoFrameSim sim_;
};

TEST_F(C17FrameSim, FaultFreePassHasNoCarriers) {
  std::vector<VSet> sets;
  sim_.run(robust_stimulus(), nullptr, sets);
  for (NodeId id = 0; id < model_.node_count(); ++id) {
    EXPECT_EQ(static_cast<VSet>(sets[id] & kCarrierSet), kEmptySet);
  }
  // N11 = NAND(N3=1, N6=F) must rise.
  EXPECT_EQ(sets[model_.head_of(nl_.find("N11"))], vset_of(V8::Rise));
}

TEST_F(C17FrameSim, InjectedFaultObservedAtBothOutputs) {
  const FaultSpec fault{model_.head_of(nl_.find("N11")), true};
  std::vector<VSet> sets;
  sim_.run(robust_stimulus(), &fault, sets);
  EXPECT_EQ(sets[fault.site], vset_of(V8::RiseC));
  // N16 = NAND(N2=1, Rc) = Fc; N22 = NAND(N10=1, Fc) = Rc.
  EXPECT_EQ(sets[model_.head_of(nl_.find("N16"))], vset_of(V8::FallC));
  EXPECT_EQ(sets[model_.head_of(nl_.find("N22"))], vset_of(V8::RiseC));
  EXPECT_EQ(sets[model_.head_of(nl_.find("N23"))], vset_of(V8::RiseC));

  std::vector<NodeId> where;
  EXPECT_TRUE(sim_.guaranteed_observation(robust_stimulus(), fault, &where));
  EXPECT_EQ(where.size(), 2u);
}

TEST_F(C17FrameSim, CarriersOnlyInsideFaultCone) {
  const FaultSpec fault{model_.head_of(nl_.find("N11")), true};
  std::vector<VSet> sets;
  sim_.run(robust_stimulus(), &fault, sets);
  const auto cone = model_.carrier_cone(fault.site);
  std::vector<bool> in_cone(model_.node_count(), false);
  for (const NodeId id : cone) {
    in_cone[id] = true;
  }
  for (NodeId id = 0; id < model_.node_count(); ++id) {
    if (!in_cone[id]) {
      EXPECT_EQ(static_cast<VSet>(sets[id] & kCarrierSet), kEmptySet);
    }
  }
}

TEST_F(C17FrameSim, UnknownInputWidensButKeepsGuarantee) {
  TwoFrameStimulus s = robust_stimulus();
  s.pi_sets[4] = kPrimaryDomain;  // N7 fully unknown
  const FaultSpec fault{model_.head_of(nl_.find("N11")), true};
  std::vector<VSet> sets;
  sim_.run(s, &fault, sets);
  // N23 may lose the carrier (N19 can glitch), but N22 stays guaranteed.
  EXPECT_EQ(sets[model_.head_of(nl_.find("N22"))], vset_of(V8::RiseC));
  EXPECT_NE(static_cast<VSet>(sets[model_.head_of(nl_.find("N23"))] &
                              ~kCarrierSet),
            kEmptySet);
  EXPECT_TRUE(sim_.guaranteed_observation(s, fault, nullptr));
}

TEST_F(C17FrameSim, NonRobustStimulusFailsRobustCheck) {
  // Make the off-path N2 fall: N16 = NAND(F, Rc) robustly dies.
  TwoFrameStimulus s = robust_stimulus();
  s.pi_sets[1] = pi(1, 0);  // N2 falls
  s.pi_sets[4] = pi(1, 1);  // N7 = 1 so N19 = NAND(Rc,1) = Fc path exists
  const FaultSpec fault{model_.head_of(nl_.find("N11")), true};
  std::vector<VSet> sets;
  sim_.run(s, &fault, sets);
  // N16 loses the carrier under the robust algebra.
  EXPECT_EQ(static_cast<VSet>(sets[model_.head_of(nl_.find("N16"))] &
                              kCarrierSet),
            kEmptySet);
}

TEST_F(C17FrameSim, RerunSourcesMatchesFreshRunUnderRandomFlips) {
  // The cone-scoped resettle must stay exactly equivalent to a fresh full
  // pass across an arbitrary sequence of source perturbations — the
  // guarantee the cached verification probes in TDgen rest on.
  const FaultSpec fault{model_.head_of(nl_.find("N11")), true};
  TwoFrameStimulus s = robust_stimulus();
  std::vector<VSet> incremental;
  sim_.run(s, &fault, incremental);
  Rng rng(42);
  for (int step = 0; step < 100; ++step) {
    std::vector<std::pair<NodeId, VSet>> diffs;
    const std::size_t n_changes = 1 + rng.next_below(3);
    for (std::size_t c = 0; c < n_changes; ++c) {
      const std::size_t i = rng.next_below(s.pi_sets.size());
      s.pi_sets[i] = static_cast<VSet>(
          rng.next_in(1, 255) & kPrimaryDomain);
      if (s.pi_sets[i] == kEmptySet) {
        s.pi_sets[i] = kPrimaryDomain;
      }
      diffs.emplace_back(model_.pis()[i], s.pi_sets[i]);
    }
    sim_.rerun_sources(diffs, &fault, incremental);
    std::vector<VSet> fresh;
    sim_.run(s, &fault, fresh);
    ASSERT_EQ(incremental, fresh) << "step " << step;
  }
}

/// The reference register fixpoint: a fresh full pass per round, pruning
/// every PPI's finals to its PPO's initials until nothing changes.
bool reference_register_fixpoint(const AtpgModel& model,
                                 const TwoFrameSim& sim,
                                 TwoFrameStimulus& stimulus,
                                 const FaultSpec* fault,
                                 std::vector<VSet>& sets) {
  for (;;) {
    sim.run(stimulus, fault, sets);
    bool pruned_any = false;
    for (std::size_t k = 0; k < model.ppis().size(); ++k) {
      const VSet pruned = vset_with_final_in(
          stimulus.ppi_sets[k], vset_initials(sets[model.ppo_node(k)]));
      if (pruned == kEmptySet) {
        return false;
      }
      pruned_any = pruned_any || pruned != stimulus.ppi_sets[k];
      stimulus.ppi_sets[k] = pruned;
    }
    if (!pruned_any) {
      return true;
    }
  }
}

TEST(RegisterFixpoint, WarmSettleMatchesReferenceFixpoint) {
  for (const char* name : {"s27", "s298"}) {
    const net::Netlist nl = circuits::load_circuit(name);
    const AtpgModel model(nl);
    ASSERT_FALSE(model.ppis().empty());
    const TwoFrameSim sim(model, robust_algebra());
    Rng rng(7);
    const FaultSpec at_ppi{model.ppis()[0], true};
    const FaultSpec at_ppo{model.ppo_node(0), false};
    const FaultSpec at_random{
        static_cast<NodeId>(rng.next_below(model.node_count())), true};
    int settled = 0;
    for (const FaultSpec* fault : {static_cast<const FaultSpec*>(nullptr),
                                   &at_ppi, &at_ppo, &at_random}) {
      std::vector<VSet> warm;
      for (int step = 0; step < 60; ++step) {
        TwoFrameStimulus s;
        for (std::size_t i = 0; i < model.pis().size(); ++i) {
          const auto bits = static_cast<VSet>(rng.next_in(1, 255));
          const VSet v = static_cast<VSet>(bits & kPrimaryDomain);
          s.pi_sets.push_back(v != kEmptySet ? v : kPrimaryDomain);
        }
        // Every other step draws some PPI sets as arbitrary subsets (e.g.
        // {R,F}), whose pruning can drop an initial and take more than one
        // round; the probe shape (all finals allowed) must settle without
        // a second round.
        const bool all_finals = step % 2 == 0;
        for (std::size_t k = 0; k < model.ppis().size(); ++k) {
          const auto inits = static_cast<unsigned>(rng.next_in(1, 3));
          VSet v = vset_with_initial_in(kPrimaryDomain, inits);
          const auto bits = static_cast<VSet>(rng.next_in(1, 255));
          if (!all_finals && rng.next_bool() &&
              (bits & kPrimaryDomain) != kEmptySet) {
            v = static_cast<VSet>(bits & kPrimaryDomain);
          }
          s.ppi_sets.push_back(v);
        }
        TwoFrameStimulus ref = s;
        std::vector<VSet> ref_sets;
        const bool ref_ok =
            reference_register_fixpoint(model, sim, ref, fault, ref_sets);
        for (const bool use_warm : {false, true}) {
          TwoFrameStimulus got = s;
          std::vector<VSet> cold;
          std::vector<VSet>& sets = use_warm ? warm : cold;
          const RegisterSettle result = sim.settle_registers(
              got, fault, sets, use_warm && step > 0);
          ASSERT_EQ(result.consistent, ref_ok)
              << name << " step " << step << " warm " << use_warm;
          if (all_finals) {
            EXPECT_LE(result.resettles, 1) << name << " step " << step;
          }
          if (ref_ok) {
            ASSERT_EQ(got.ppi_sets, ref.ppi_sets) << name << " step " << step;
            ASSERT_EQ(sets, ref_sets) << name << " step " << step;
            ++settled;
          }
        }
      }
    }
    EXPECT_GT(settled, 100) << name;
  }
}

TEST_F(C17FrameSim, ForcedSweepStopReportsConeValue) {
  // A truncated lane must report exactly the value a full forced replay
  // leaves at the stop node, and never touch POs.
  std::vector<VSet> baseline;
  sim_.run(robust_stimulus(), nullptr, baseline);
  const NodeId stem = model_.head_of(nl_.find("N11"));
  for (const NodeId stop :
       {model_.head_of(nl_.find("N16")), model_.head_of(nl_.find("N19")),
        model_.head_of(nl_.find("N22"))}) {
    for (const V8 pol : {V8::RiseC, V8::FallC}) {
      std::vector<VSet> reference;
      sim_.run_forced(robust_stimulus(), stem, vset_of(pol), reference);
      const TwoFrameSim::ForcedLane lane{stem, vset_of(pol), stop};
      VSet stop_value = kEmptySet;
      const std::uint64_t mask =
          sim_.forced_sweep(baseline, {&lane, 1}, {&stop_value, 1});
      EXPECT_EQ(stop_value, reference[stop]);
      EXPECT_EQ(mask, 0u);  // truncated lanes never report a PO verdict
    }
  }
}

TEST_F(C17FrameSim, ForcedSweepMaskMatchesRunForced) {
  std::vector<VSet> baseline;
  sim_.run(robust_stimulus(), nullptr, baseline);
  std::vector<TwoFrameSim::ForcedLane> lanes;
  for (const char* name : {"N11", "N10", "N16", "N19"}) {
    lanes.push_back({model_.head_of(nl_.find(name)), vset_of(V8::RiseC),
                     kNoNode});
    lanes.push_back({model_.head_of(nl_.find(name)), vset_of(V8::FallC),
                     kNoNode});
  }
  const std::uint64_t mask = sim_.forced_po_carrier_mask(baseline, lanes);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    std::vector<VSet> forced;
    sim_.run_forced(robust_stimulus(), lanes[i].node, lanes[i].set, forced);
    bool po_carrier = false;
    for (const NodeId obs : model_.observation_points()) {
      if (!model_.node(obs).is_po) {
        continue;
      }
      const VSet s = forced[obs];
      if (s != kEmptySet && (s & ~kCarrierSet) == 0) {
        po_carrier = true;
      }
    }
    EXPECT_EQ((mask >> i & 1u) != 0, po_carrier) << "lane " << i;
  }
}

TEST_F(C17FrameSim, WideForcedSweepSpansPackedWords) {
  // A sweep packs eight byte lanes per word; twelve lanes cross two
  // packed words, and every lane's verdict must still match its own full
  // forced replay — the invariant that lets tdsim batch stems without
  // changing verdicts.
  static_assert(TwoFrameSim::kPackedLanes == 64);
  std::vector<VSet> baseline;
  sim_.run(robust_stimulus(), nullptr, baseline);
  std::vector<TwoFrameSim::ForcedLane> lanes;
  for (const char* name : {"N10", "N11", "N16", "N19", "N22", "N23"}) {
    lanes.push_back({model_.head_of(nl_.find(name)), vset_of(V8::RiseC),
                     kNoNode});
    lanes.push_back({model_.head_of(nl_.find(name)), vset_of(V8::FallC),
                     kNoNode});
  }
  ASSERT_GT(lanes.size(), 8u);  // must spill past one packed word
  const std::uint64_t wide_mask = sim_.forced_po_carrier_mask(baseline, lanes);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    std::vector<VSet> forced;
    sim_.run_forced(robust_stimulus(), lanes[i].node, lanes[i].set, forced);
    bool po_carrier = false;
    for (const NodeId obs : model_.observation_points()) {
      if (!model_.node(obs).is_po) {
        continue;
      }
      const VSet s = forced[obs];
      if (s != kEmptySet && (s & ~kCarrierSet) == 0) {
        po_carrier = true;
      }
    }
    EXPECT_EQ((wide_mask >> i & 1u) != 0, po_carrier) << "lane " << i;
  }
  // Chunked into one-word sweeps of 8 lanes the verdicts are identical.
  std::uint64_t chunked = 0;
  for (std::size_t begin = 0; begin < lanes.size(); begin += 8) {
    const std::size_t count = std::min<std::size_t>(8, lanes.size() - begin);
    chunked |= sim_.forced_po_carrier_mask(
                   baseline, {lanes.data() + begin, count})
               << begin;
  }
  EXPECT_EQ(wide_mask, chunked);
}

TEST(ForcedSweep, FullWidthSweepMatchesPerLaneReplay) {
  // A sweep of all kPackedLanes lanes fills every packed word: each lane
  // must still report what its own forced replay leaves at its stop node.
  const net::Netlist nl = circuits::load_circuit("s298");
  const AtpgModel model(nl);
  const TwoFrameSim sim(model, robust_algebra());
  Rng rng(298);
  const auto random_bits = [&rng] {
    return vset_primary_from_frames(static_cast<int>(rng.next_below(2)),
                                    static_cast<int>(rng.next_below(2)));
  };
  TwoFrameStimulus stimulus;
  stimulus.pi_sets.resize(nl.inputs().size());
  stimulus.ppi_sets.resize(nl.dffs().size());
  for (VSet& set : stimulus.pi_sets) {
    set = random_bits();
  }
  for (VSet& set : stimulus.ppi_sets) {
    set = random_bits();
  }
  std::vector<VSet> baseline;
  sim.run(stimulus, nullptr, baseline);

  // Half the lanes force a rising carrier on distinct nodes, the other
  // half a falling one on the same nodes in the same order, so lanes that
  // are half a sweep apart share their whole cones. Each lane stops three
  // readers downstream, so its wave crosses gates.
  constexpr std::size_t kHalf = TwoFrameSim::kPackedLanes / 2;
  std::vector<TwoFrameSim::ForcedLane> lanes;
  for (NodeId id = 0; id < model.node_count() && lanes.size() < kHalf;
       ++id) {
    NodeId stop = id;
    for (int hop = 0; hop < 3 && !model.fanout(stop).empty(); ++hop) {
      stop = model.fanout(stop)[0];
    }
    if (stop != id) {
      lanes.push_back({id, vset_of(V8::RiseC), stop});
    }
  }
  ASSERT_EQ(lanes.size(), kHalf);
  for (std::size_t i = 0; i < kHalf; ++i) {
    lanes.push_back({lanes[i].node, vset_of(V8::FallC), lanes[i].stop});
  }
  std::vector<VSet> stop_values(lanes.size(), kEmptySet);
  EXPECT_EQ(sim.forced_sweep(baseline, lanes, stop_values), 0u);
  int upper_half_moved = 0;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    std::vector<VSet> reference;
    sim.run_forced(stimulus, lanes[i].node, lanes[i].set, reference);
    EXPECT_EQ(stop_values[i], reference[lanes[i].stop]) << "lane " << i;
    if (i >= kHalf && stop_values[i] != baseline[lanes[i].stop]) {
      ++upper_half_moved;
    }
  }
  EXPECT_GT(upper_half_moved, 0);  // the upper words carry real waves
}

TEST_F(C17FrameSim, StimulusSizeMismatchIsFatal) {
  TwoFrameStimulus s;
  s.pi_sets = {kPrimaryDomain};  // wrong size
  std::vector<VSet> sets;
  EXPECT_DEATH(sim_.run(s, nullptr, sets), "PI stimulus size mismatch");
}

}  // namespace
}  // namespace gdf::alg
