#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "base/rng.hpp"
#include "circuits/catalog.hpp"
#include "circuits/embedded.hpp"
#include "netlist/builder.hpp"
#include "semilet/semilet.hpp"

namespace gdf::semilet {
namespace {

using sim::InputVec;
using sim::Lv;
using sim::StateVec;

SemiletOptions roomy() {
  SemiletOptions o;
  o.backtrack_limit = 1000;
  return o;
}

TEST(FramePodemJustify, CombinationalObjective) {
  // c17: justify N22 = 0, which needs N10 = N16 = 1.
  const net::Netlist nl = circuits::make_c17();
  sim::SeqSimulator simulator(nl);
  Budget budget(roomy());
  PodemRequest request;
  request.mode = PodemMode::JustifyValues;
  request.in_state = {};
  request.assignable_ppi = {};
  request.objectives = {{nl.find("N22"), Lv::Zero}};
  FramePodem podem(simulator, budget, std::move(request));
  FrameSolution sol;
  ASSERT_EQ(podem.next(&sol), PodemStatus::Solution);
  EXPECT_EQ(sol.line_values[nl.find("N22")], Lv::Zero);
}

TEST(FramePodemJustify, ImpossibleObjectiveExhausts) {
  net::NetlistBuilder b("const0");
  b.input("a");
  b.output("y");
  b.gate("an", net::GateType::Not, {"a"});
  b.gate("y", net::GateType::And, {"a", "an"});
  const net::Netlist nl = b.build();
  sim::SeqSimulator simulator(nl);
  Budget budget(roomy());
  PodemRequest request;
  request.mode = PodemMode::JustifyValues;
  request.objectives = {{nl.find("y"), Lv::One}};
  FramePodem podem(simulator, budget, std::move(request));
  EXPECT_EQ(podem.next(nullptr), PodemStatus::Exhausted);
}

TEST(FramePodemJustify, EnumeratesMultipleSolutions) {
  // y = OR(a, b) = 1 has three satisfying binary corners; PODEM with X's
  // yields at least two distinct solutions.
  net::NetlistBuilder b("or2");
  b.input("a");
  b.input("b");
  b.output("y");
  b.gate("y", net::GateType::Or, {"a", "b"});
  const net::Netlist nl = b.build();
  sim::SeqSimulator simulator(nl);
  Budget budget(roomy());
  PodemRequest request;
  request.mode = PodemMode::JustifyValues;
  request.objectives = {{nl.find("y"), Lv::One}};
  FramePodem podem(simulator, budget, std::move(request));
  FrameSolution first, second;
  ASSERT_EQ(podem.next(&first), PodemStatus::Solution);
  ASSERT_EQ(podem.next(&second), PodemStatus::Solution);
  EXPECT_NE(first.pis, second.pis);
}

TEST(FramePodemObserve, DriveStateFaultToOutput) {
  // s27 with D at flip-flop G5: G11 = NOR(G5, G9) passes D' to PO G17 as D
  // once G9 = 0 is justified.
  const net::Netlist nl = circuits::make_s27();
  sim::SeqSimulator simulator(nl);
  Budget budget(roomy());
  PodemRequest request;
  request.mode = PodemMode::ObserveFault;
  request.in_state = {Lv::D, Lv::X, Lv::X};
  request.assignable_ppi = {false, true, true};
  request.require_po = true;
  FramePodem podem(simulator, budget, std::move(request));
  FrameSolution sol;
  ASSERT_EQ(podem.next(&sol), PodemStatus::Solution);
  EXPECT_TRUE(sol.po_hit);
  EXPECT_TRUE(sim::is_fault_effect(sol.line_values[nl.find("G17")]));
}

TEST(FramePodemObserve, UnassignableStateBlocksBacktrace) {
  // A circuit where observation needs a specific state bit: q AND d where
  // d carries D. With q unassignable (U), the only sensitization is
  // unreachable and the frame exhausts.
  net::NetlistBuilder b("gated");
  b.input("a");
  b.output("y");
  b.dff("q", "d");
  b.gate("d", net::GateType::Buf, {"a"});
  b.gate("y", net::GateType::And, {"q", "a"});
  const net::Netlist nl = b.build();
  sim::SeqSimulator simulator(nl);

  for (const bool assignable : {true, false}) {
    Budget budget(roomy());
    PodemRequest request;
    request.mode = PodemMode::ObserveFault;
    request.in_state = {Lv::X};
    request.assignable_ppi = {assignable};
    request.require_po = true;
    // Fault effect arrives via PI a: inject stuck-at-0 at a and force the
    // activating value through the activation objective.
    request.injection = {nl.find("a"), Lv::Zero};
    request.activation_line = nl.find("a");
    request.activation_value = Lv::One;
    FramePodem podem(simulator, budget, std::move(request));
    FrameSolution sol;
    const PodemStatus status = podem.next(&sol);
    if (assignable) {
      ASSERT_EQ(status, PodemStatus::Solution);
      EXPECT_TRUE(sol.po_hit);
      ASSERT_EQ(sol.ppi_assignments.size(), 1u);
      EXPECT_EQ(sol.ppi_assignments[0].second, Lv::One);
    } else {
      EXPECT_EQ(status, PodemStatus::Exhausted);
    }
  }
}

/// FNV-1a over the enumeration of ObserveFault solutions with a D/D'
/// injected at each DFF in turn. The D-frontier choice steers which
/// decisions the search makes, so any drift in the fault-effect
/// bookkeeping reorders or changes this sequence even where each solution
/// still ends in a valid observation.
std::uint64_t observe_enumeration_digest(const net::Netlist& nl) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  sim::SeqSimulator simulator(nl);
  const std::size_t ffs = nl.dffs().size();
  for (std::size_t ff = 0; ff < ffs; ++ff) {
    for (const Lv effect : {Lv::D, Lv::Dbar}) {
      Budget budget(SemiletOptions{});
      PodemRequest request;
      request.mode = PodemMode::ObserveFault;
      request.in_state.assign(ffs, Lv::X);
      request.in_state[ff] = effect;
      request.assignable_ppi.assign(ffs, true);
      request.assignable_ppi[ff] = false;
      FramePodem podem(simulator, budget, std::move(request));
      PodemStatus status = PodemStatus::Solution;
      for (int n = 0; n < 20; ++n) {
        FrameSolution sol;
        status = podem.next(&sol);
        if (status != PodemStatus::Solution) {
          break;
        }
        for (const Lv v : sol.pis) {
          mix(static_cast<std::uint64_t>(v));
        }
        for (const auto& [index, value] : sol.ppi_assignments) {
          mix(index);
          mix(static_cast<std::uint64_t>(value));
        }
        mix(sol.po_hit ? 1 : 0);
        mix(sol.ppo_hit ? 1 : 0);
      }
      mix(0x100 + static_cast<std::uint64_t>(status));
    }
  }
  return h;
}

TEST(FramePodemObserve, EnumerationDigestPinned) {
  // Pinned from the full-netlist D-frontier scan the incremental
  // fault-effect set replaced; the search must make the same choices.
  EXPECT_EQ(observe_enumeration_digest(circuits::make_s27()),
            0xebace2a8ae2306f1ull);
  EXPECT_EQ(observe_enumeration_digest(circuits::load_circuit("s298")),
            0x9d1a729df24a8501ull);
  EXPECT_EQ(observe_enumeration_digest(circuits::load_circuit("s838")),
            0x4f81fc93b2640f0dull);
}

/// Enumerates `podem` to the end and checks every solution's settled frame
/// against a full eval_frame of its PIs and its state (the in-state with
/// the solution's PPI assignments applied). Returns the solution count.
int check_solution_frames(const sim::SeqSimulator& simulator,
                          FramePodem& podem, const StateVec& in_state,
                          const sim::Injection& injection,
                          const std::string& where) {
  int solutions = 0;
  std::vector<Lv> reference;
  FrameSolution sol;
  while (podem.next(&sol) == PodemStatus::Solution) {
    StateVec state = in_state;
    for (const auto& [index, value] : sol.ppi_assignments) {
      state[index] = value;
    }
    simulator.eval_frame(sol.pis, state, reference,
                         injection.active() ? &injection : nullptr);
    EXPECT_EQ(sol.line_values, reference) << where << " solution "
                                          << solutions;
    if (sol.line_values != reference) {
      break;
    }
    ++solutions;
  }
  return solutions;
}

TEST(FramePodemUndo, EverySolutionFrameMatchesFullEvaluation) {
  // Backtracking restores lines from the decision journal instead of
  // re-simulating, so any missed restore leaves a stale line in the next
  // solution's frame. Enumerate ObserveFault (D/D' at a state bit, or a
  // stuck-at injection chased from its activation) and JustifyValues
  // (objectives taken from a random full evaluation) searches to the end.
  for (const char* name : {"s27", "s208", "s298", "s386"}) {
    const net::Netlist nl = circuits::load_circuit(name);
    const sim::SeqSimulator simulator(nl);
    const std::size_t ffs = nl.dffs().size();
    Rng rng(0x5eed);
    SemiletOptions options;
    options.backtrack_limit = 400;
    int solutions = 0;
    for (int round = 0; round < 16; ++round) {
      const std::string where = std::string(name) + " round " +
                                std::to_string(round);
      {
        Budget budget(options);
        PodemRequest request;
        request.mode = PodemMode::ObserveFault;
        request.in_state.assign(ffs, Lv::X);
        request.assignable_ppi.assign(ffs, true);
        if (round % 2 == 0) {
          const std::size_t ff = rng.next_below(ffs);
          request.in_state[ff] = rng.next_bool() ? Lv::D : Lv::Dbar;
          request.assignable_ppi[ff] = false;
        } else {
          const auto line =
              static_cast<net::GateId>(rng.next_below(nl.size()));
          const Lv stuck = rng.next_bool() ? Lv::One : Lv::Zero;
          request.injection = {line, stuck};
          request.activation_line = line;
          request.activation_value = stuck == Lv::One ? Lv::Zero : Lv::One;
        }
        const StateVec in_state = request.in_state;
        const sim::Injection injection = request.injection;
        FramePodem podem(simulator, budget, std::move(request));
        solutions += check_solution_frames(simulator, podem, in_state,
                                           injection, where + " observe");
      }
      {
        sim::InputVec pis(nl.inputs().size());
        for (Lv& v : pis) {
          v = rng.next_bool() ? Lv::One : Lv::Zero;
        }
        StateVec state(ffs);
        for (Lv& v : state) {
          v = rng.next_bool() ? Lv::One : Lv::Zero;
        }
        std::vector<Lv> lines;
        simulator.eval_frame(pis, state, lines);
        Budget budget(options);
        PodemRequest request;
        request.mode = PodemMode::JustifyValues;
        request.in_state.assign(ffs, Lv::X);
        request.assignable_ppi.assign(ffs, true);
        for (int k = 0; k < 3; ++k) {
          const auto line =
              static_cast<net::GateId>(rng.next_below(nl.size()));
          request.objectives.emplace_back(line, lines[line]);
        }
        const StateVec in_state = request.in_state;
        FramePodem podem(simulator, budget, std::move(request));
        solutions += check_solution_frames(simulator, podem, in_state, {},
                                           where + " justify");
      }
    }
    EXPECT_GT(solutions, 50) << name;
  }
}

TEST(PropagatorTest, OneFramePath) {
  const net::Netlist nl = circuits::make_s27();
  Budget budget(roomy());
  Propagator propagator(nl, budget);
  StateVec boundary = {Lv::D, Lv::X, Lv::X};
  propagator.start(boundary, {false, true, true});
  PropagationOutcome outcome;
  ASSERT_EQ(propagator.next(&outcome), SeqStatus::Success);
  ASSERT_GE(outcome.frames.size(), 1u);

  // Replay: inject D at G5 and apply the frames; a PO must show D/D'.
  sim::SeqSimulator simulator(nl);
  StateVec state = boundary;
  for (auto& [ff, v] : outcome.boundary_requirements) {
    ASSERT_EQ(state[ff], Lv::X);
    state[ff] = v;
  }
  std::vector<Lv> lines;
  bool seen_po = false;
  for (const InputVec& pis : outcome.frames) {
    simulator.eval_frame(pis, state, lines);
    for (const net::GateId po : nl.outputs()) {
      seen_po = seen_po || sim::is_fault_effect(lines[po]);
    }
    state = simulator.next_state(lines);
  }
  EXPECT_TRUE(seen_po);
}

TEST(PropagatorTest, NoFaultEffectMeansExhausted) {
  const net::Netlist nl = circuits::make_s27();
  Budget budget(roomy());
  Propagator propagator(nl, budget);
  propagator.start(StateVec{Lv::Zero, Lv::X, Lv::One},
                   {false, false, false});
  EXPECT_EQ(propagator.next(nullptr), SeqStatus::Exhausted);
}

TEST(PropagatorTest, MultiFrameChase) {
  // Two-stage shift: D must cross one extra register before a PO exists.
  net::NetlistBuilder b("shift2");
  b.input("en");
  b.output("y");
  b.dff("q0", "d0");
  b.dff("q1", "d1");
  b.gate("d0", net::GateType::And, {"q0", "en"});  // dead end for q0
  b.gate("d1", net::GateType::Buf, {"q0"});
  b.gate("y", net::GateType::And, {"q1", "en"});
  const net::Netlist nl = b.build();
  Budget budget(roomy());
  Propagator propagator(nl, budget);
  propagator.start(StateVec{Lv::D, Lv::X}, {false, true});
  PropagationOutcome outcome;
  ASSERT_EQ(propagator.next(&outcome), SeqStatus::Success);
  EXPECT_GE(outcome.frames.size(), 2u);
}

TEST(SynchronizerTest, EmptyRequirementsTrivial) {
  const net::Netlist nl = circuits::make_s27();
  Budget budget(roomy());
  Synchronizer synchronizer(nl, budget);
  SyncResult result;
  ASSERT_EQ(synchronizer.synchronize({}, &result), SeqStatus::Success);
  EXPECT_TRUE(result.frames.empty());
}

TEST(SynchronizerTest, S27FullStateReachable) {
  // All-ones inputs drive s27 into (1,0,0) from any state; the
  // synchronizer must find some sequence establishing required bits.
  const net::Netlist nl = circuits::make_s27();
  Budget budget(roomy());
  Synchronizer synchronizer(nl, budget);
  SyncResult result;
  const std::vector<std::pair<std::size_t, Lv>> reqs = {
      {0, Lv::One}, {1, Lv::Zero}, {2, Lv::Zero}};
  ASSERT_EQ(synchronizer.synchronize(reqs, &result), SeqStatus::Success);

  // Property: replaying from all-X establishes the requirements.
  sim::SeqSimulator simulator(nl);
  StateVec state = simulator.unknown_state();
  std::vector<Lv> lines;
  for (const InputVec& pis : result.frames) {
    simulator.eval_frame(pis, state, lines);
    state = simulator.next_state(lines);
  }
  for (const auto& [ff, v] : reqs) {
    EXPECT_EQ(state[ff], v) << "ff " << ff;
  }
}

TEST(SynchronizerTest, UninitializableBitExhausts) {
  // q feeds back through a buffer: no input ever defines it.
  net::NetlistBuilder b("floaty");
  b.input("a");
  b.output("y");
  b.dff("q", "d");
  b.gate("d", net::GateType::Buf, {"q"});
  b.gate("y", net::GateType::And, {"a", "q"});
  const net::Netlist nl = b.build();
  Budget budget(roomy());
  Synchronizer synchronizer(nl, budget);
  SyncResult result;
  EXPECT_EQ(synchronizer.synchronize({{0, Lv::One}}, &result),
            SeqStatus::Exhausted);
}

TEST(SynchronizerTest, ChainNeedsMultipleFrames) {
  // q1 loads from q0, q0 loads from the input: requiring q1 takes two
  // frames of reverse processing.
  net::NetlistBuilder b("chain");
  b.input("a");
  b.output("y");
  b.dff("q0", "d0");
  b.dff("q1", "d1");
  b.gate("d0", net::GateType::Buf, {"a"});
  b.gate("d1", net::GateType::Buf, {"q0"});
  b.gate("y", net::GateType::Buf, {"q1"});
  const net::Netlist nl = b.build();
  Budget budget(roomy());
  Synchronizer synchronizer(nl, budget);
  SyncResult result;
  ASSERT_EQ(synchronizer.synchronize({{1, Lv::One}}, &result),
            SeqStatus::Success);
  EXPECT_EQ(result.frames.size(), 2u);

  sim::SeqSimulator simulator(nl);
  StateVec state = simulator.unknown_state();
  std::vector<Lv> lines;
  for (const InputVec& pis : result.frames) {
    simulator.eval_frame(pis, state, lines);
    state = simulator.next_state(lines);
  }
  EXPECT_EQ(state[1], Lv::One);
}

TEST(StuckAtTest, S27MostFaultsTestable) {
  const net::Netlist nl = circuits::make_s27();
  StuckAtAtpg atpg(nl, roomy());
  sim::SeqSimulator simulator(nl);
  int found = 0, untestable = 0, aborted = 0;
  for (net::GateId line = 0; line < nl.size(); ++line) {
    for (const bool sa1 : {false, true}) {
      StuckAtTest test;
      switch (atpg.generate({line, sa1}, &test)) {
        case StuckAtStatus::TestFound: {
          ++found;
          // Independent replay with the fault injected.
          const sim::Injection inj{line, sa1 ? Lv::One : Lv::Zero};
          StateVec state = simulator.unknown_state();
          std::vector<Lv> lines_v;
          bool detected = false;
          for (const InputVec& pis : test.frames) {
            simulator.eval_frame(pis, state, lines_v, &inj);
            for (const net::GateId po : nl.outputs()) {
              detected = detected || sim::is_fault_effect(lines_v[po]);
            }
            state = simulator.next_state(lines_v);
          }
          EXPECT_TRUE(detected) << nl.gate(line).name
                                << (sa1 ? " s-a-1" : " s-a-0");
          break;
        }
        case StuckAtStatus::Untestable:
          ++untestable;
          break;
        case StuckAtStatus::Aborted:
          ++aborted;
          break;
      }
    }
  }
  // s27's stuck-at faults are almost all sequentially testable.
  EXPECT_GT(found, 25);
  EXPECT_EQ(found + untestable + aborted, 34);
}

TEST(StuckAtTest, TinyBudgetAborts) {
  const net::Netlist nl = circuits::load_circuit("s298");
  SemiletOptions strangled;
  strangled.backtrack_limit = 0;
  strangled.decision_limit = 1;
  StuckAtAtpg atpg(nl, strangled);
  int aborted = 0;
  for (net::GateId line = 0; line < 10; ++line) {
    StuckAtTest test;
    if (atpg.generate({line, false}, &test) == StuckAtStatus::Aborted) {
      ++aborted;
    }
  }
  EXPECT_GT(aborted, 0);
}

TEST(BudgetTest, CountsAndLimits) {
  SemiletOptions o;
  o.backtrack_limit = 2;
  o.decision_limit = 3;
  Budget b(o);
  EXPECT_TRUE(b.note_backtrack());
  EXPECT_TRUE(b.note_backtrack());
  EXPECT_FALSE(b.note_backtrack());
  EXPECT_TRUE(b.exhausted());
  EXPECT_EQ(b.backtracks(), 3);
}

}  // namespace
}  // namespace gdf::semilet
