#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "algebra/frame_sim.hpp"
#include "base/rng.hpp"
#include "circuits/catalog.hpp"
#include "circuits/embedded.hpp"
#include "netlist/fanout.hpp"
#include "tdgen/probe_memo.hpp"

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

struct InjectedCase {
  std::string circuit;
  std::uint64_t seed;
};

class InjectedReplay : public ::testing::TestWithParam<InjectedCase> {};

TEST_P(InjectedReplay, MatchesFaultedFullRunAtEverySite) {
  // inject replays only the site's cone over a fault-free pass; it must
  // equal a full faulted pass at every fault site and polarity, and its
  // journal must give the fault-free pass back.
  const net::Netlist nl =
      net::expand_fanout_branches(circuits::load_circuit(GetParam().circuit));
  const AtpgModel model(nl);
  const TwoFrameSim sim(model, robust_algebra());
  Rng rng(GetParam().seed);
  const auto random_bits = [&rng] {
    return vset_primary_from_frames(static_cast<int>(rng.next_below(2)),
                                    static_cast<int>(rng.next_below(2)));
  };
  int observed = 0;
  for (int pattern = 0; pattern < 8; ++pattern) {
    TwoFrameStimulus stimulus;
    stimulus.pi_sets.resize(nl.inputs().size());
    for (VSet& s : stimulus.pi_sets) {
      s = random_bits();
    }
    stimulus.ppi_sets.resize(nl.dffs().size());
    for (VSet& s : stimulus.ppi_sets) {
      s = random_bits();
    }
    std::vector<VSet> baseline;
    sim.run(stimulus, nullptr, baseline);
    std::vector<VSet> injected = baseline;
    std::vector<VSet> reference;
    SetJournal journal;
    for (NodeId site = 0; site < model.node_count(); ++site) {
      for (const bool slow_to_rise : {true, false}) {
        const FaultSpec fault{site, slow_to_rise};
        sim.inject(fault, injected, journal);
        sim.run(stimulus, &fault, reference);
        ASSERT_EQ(injected, reference)
            << GetParam().circuit << " pattern " << pattern << " site "
            << site << (slow_to_rise ? " StR" : " StF");
        for (const NodeId obs : model.observation_points()) {
          if (obs != site && (injected[obs] & kCarrierSet) != 0) {
            ++observed;
            break;
          }
        }
        revert(journal, injected);
        ASSERT_EQ(injected, baseline)
            << GetParam().circuit << " pattern " << pattern << " site "
            << site << (slow_to_rise ? " StR" : " StF") << " revert";
      }
    }
  }
  // The carriers must travel: some injection reaches an observation point
  // other than its own site.
  EXPECT_GT(observed, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, InjectedReplay,
    ::testing::Values(InjectedCase{"c17", 11}, InjectedCase{"s27", 12},
                      InjectedCase{"s298", 13}, InjectedCase{"s386", 14}),
    [](const ::testing::TestParamInfo<InjectedCase>& info) {
      return info.param.circuit;
    });

class JournaledProbe : public ::testing::TestWithParam<InjectedCase> {};

TEST_P(JournaledProbe, RevertRestoresAndAcceptMatchesColdSettle) {
  // The don't-care lifting discipline of TDgen's verification probes: from
  // a settled probe state, widen one source toward X and settle warm with
  // a journal. A reverted probe must leave the node sets byte-equal to the
  // state before it; an accepted one must equal a cold run() plus settle
  // of the widened sources, whatever mix of accepts and reverts led there.
  const net::Netlist nl =
      net::expand_fanout_branches(circuits::load_circuit(GetParam().circuit));
  const AtpgModel model(nl);
  const TwoFrameSim sim(model, robust_algebra());
  Rng rng(GetParam().seed);
  const std::size_t n_pis = model.pis().size();
  const std::size_t n_ppis = model.ppis().size();
  const auto stimulus_of = [&](const std::vector<VSet>& pi_sets,
                               const std::vector<unsigned>& ppi_inits) {
    TwoFrameStimulus s;
    s.pi_sets = pi_sets;
    for (const unsigned inits : ppi_inits) {
      s.ppi_sets.push_back(vset_with_initial_in(kPrimaryDomain, inits));
    }
    return s;
  };
  int reverted = 0;
  int accepted = 0;
  for (int round = 0; round < 12; ++round) {
    const FaultSpec fault{
        static_cast<NodeId>(rng.next_below(model.node_count())),
        rng.next_bool()};
    std::vector<VSet> pi_sets(n_pis);
    for (VSet& s : pi_sets) {
      s = vset_primary_from_frames(static_cast<int>(rng.next_below(2)),
                                   static_cast<int>(rng.next_below(2)));
    }
    std::vector<unsigned> ppi_inits(n_ppis);
    for (unsigned& inits : ppi_inits) {
      inits = 1u + static_cast<unsigned>(rng.next_below(2));
    }
    std::vector<VSet> probe;
    TwoFrameStimulus first = stimulus_of(pi_sets, ppi_inits);
    sim.settle_registers(first, &fault, probe, false);
    SetJournal journal;
    for (int lift = 0; lift < 24; ++lift) {
      const std::size_t pick = rng.next_below(n_pis + n_ppis);
      std::vector<VSet> lifted_pis = pi_sets;
      std::vector<unsigned> lifted_inits = ppi_inits;
      if (pick < n_pis) {
        lifted_pis[pick] = kPrimaryDomain;
      } else {
        lifted_inits[pick - n_pis] = 0b11u;
      }
      TwoFrameStimulus s = stimulus_of(lifted_pis, lifted_inits);
      const std::vector<VSet> before = probe;
      const RegisterSettle settled =
          sim.settle_registers(s, &fault, probe, true, &journal);
      if (!settled.consistent || rng.next_bool()) {
        revert(journal, probe);
        ASSERT_EQ(probe, before) << GetParam().circuit << " round " << round
                                 << " lift " << lift;
        ++reverted;
        continue;
      }
      journal.clear();
      TwoFrameStimulus cold_stimulus = stimulus_of(lifted_pis, lifted_inits);
      std::vector<VSet> cold;
      ASSERT_TRUE(
          sim.settle_registers(cold_stimulus, &fault, cold, false).consistent);
      ASSERT_EQ(probe, cold) << GetParam().circuit << " round " << round
                             << " lift " << lift;
      ASSERT_EQ(s.ppi_sets, cold_stimulus.ppi_sets);
      pi_sets = lifted_pis;
      ppi_inits = lifted_inits;
      ++accepted;
    }
  }
  EXPECT_GT(reverted, 20);
  EXPECT_GT(accepted, 20);
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, JournaledProbe,
    ::testing::Values(InjectedCase{"c17", 21}, InjectedCase{"s27", 22},
                      InjectedCase{"s298", 23}, InjectedCase{"s386", 24}),
    [](const ::testing::TestParamInfo<InjectedCase>& info) {
      return info.param.circuit;
    });

TEST(ProbeMemoKey, DistinctSourceVectorsNeverShareAKey) {
  // Exhaustive over a 3-PI, 2-PPI source space: all 16^3 * 4^2 vectors get
  // distinct keys and distinct memo entries.
  tdgen::ProbeMemo memo(3, 2);
  std::vector<std::uint64_t> key;
  std::map<std::vector<std::uint64_t>, std::uint32_t> seen;
  std::uint32_t vectors = 0;
  for (unsigned code = 0; code < (1u << 16); ++code) {
    const std::vector<VSet> pi_sets = {static_cast<VSet>(code & 0xF),
                                       static_cast<VSet>((code >> 4) & 0xF),
                                       static_cast<VSet>((code >> 8) & 0xF)};
    const std::vector<unsigned> ppi_inits = {(code >> 12) & 3u,
                                             (code >> 14) & 3u};
    memo.pack(pi_sets, ppi_inits, key);
    ASSERT_TRUE(seen.emplace(key, code).second) << "code " << code;
    tdgen::ProbeMemo::Entry& entry = memo.at(key);
    ASSERT_FALSE(entry.succeeded) << "code " << code;
    entry.succeeded = true;
    entry.outcome = code;
    ++vectors;
  }
  ASSERT_EQ(memo.size(), vectors);
  for (const auto& [k, code] : seen) {
    ASSERT_EQ(memo.at(k).outcome, code);
  }
  ASSERT_EQ(memo.size(), vectors);

  // Multi-word keys: random vectors over 21 PIs and 31 PPIs (146 bits)
  // collide only when they are equal.
  tdgen::ProbeMemo wide(21, 31);
  EXPECT_EQ(wide.key_words(), 3u);
  Rng rng(5);
  std::map<std::vector<std::uint64_t>,
           std::pair<std::vector<VSet>, std::vector<unsigned>>>
      sources;
  for (int n = 0; n < 4000; ++n) {
    std::vector<VSet> pi_sets(21);
    for (VSet& s : pi_sets) {
      s = static_cast<VSet>(rng.next_below(4) == 0 ? kPrimaryDomain
                                                   : rng.next_below(16));
    }
    std::vector<unsigned> ppi_inits(31);
    for (unsigned& inits : ppi_inits) {
      inits = static_cast<unsigned>(rng.next_below(4));
    }
    wide.pack(pi_sets, ppi_inits, key);
    const auto [it, fresh] =
        sources.emplace(key, std::pair{pi_sets, ppi_inits});
    if (!fresh) {
      ASSERT_EQ(it->second.first, pi_sets);
      ASSERT_EQ(it->second.second, ppi_inits);
    }
    wide.at(key);
  }
  EXPECT_EQ(wide.size(), sources.size());
}

TEST(ProbeMemoKey, OutOfDomainSourceIsFatal) {
  const tdgen::ProbeMemo memo(2, 1);
  std::vector<std::uint64_t> key;
  const std::vector<VSet> carrier_pi = {kPrimaryDomain, vset_of(V8::RiseC)};
  EXPECT_DEATH(memo.pack(carrier_pi, std::vector<unsigned>{1}, key),
               "PI set outside the primary domain");
  const std::vector<VSet> clean_pis = {kPrimaryDomain, kPrimaryDomain};
  EXPECT_DEATH(memo.pack(clean_pis, std::vector<unsigned>{4}, key),
               "PPI initials outside");
}

TEST_F(C17FrameSim, StimulusSizeMismatchIsFatal) {
  TwoFrameStimulus s;
  s.pi_sets = {kPrimaryDomain};  // wrong size
  std::vector<VSet> sets;
  EXPECT_DEATH(sim_.run(s, nullptr, sets), "PI stimulus size mismatch");
}

}  // namespace
}  // namespace gdf::alg
