// Per-fault verdict oracle: the repo's own ground-truth check on the
// generation verdicts, with no external solver. Every fault of each
// circuit is generated alone (Fogbuster::generate_for_fault, no dropping)
// under several search configurations, and two properties must hold:
//
//  1. every Tested verdict carries a sequence that re-verifies under the
//     independent end-to-end check (core::verify_sequence);
//  2. no fault is Tested under one configuration and Untestable under
//     another — a search may abort where another succeeds, but an
//     Untestable verdict is a proof, so a verified test elsewhere
//     refutes it.
//
// The configurations are the deterministic search modes: the
// chronological pre-learning search, and conflict-driven learning with
// and without Luby restarts (restarts only act when learning is on, so
// off x luby would repeat the first row) — plus the default search under
// a per-fault work budget (--fault-budget), whose aborts cut the local
// search and its re-entries at a deterministic point.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuits/catalog.hpp"
#include "core/context.hpp"
#include "core/fogbuster.hpp"
#include "core/verify.hpp"

namespace gdf::core {
namespace {

struct SearchSetting {
  const char* name;
  LearnMode learn;
  tdgen::RestartPolicy restarts;
  long fault_budget = 0;  ///< 0 = unlimited
};

constexpr SearchSetting kSettings[] = {
    {"learn off", LearnMode::Off, tdgen::RestartPolicy::Off},
    {"learn on, restarts off", LearnMode::On, tdgen::RestartPolicy::Off},
    {"learn on, restarts luby", LearnMode::On, tdgen::RestartPolicy::Luby},
    {"learn on, restarts luby, fault_budget 5000", LearnMode::On,
     tdgen::RestartPolicy::Luby, 5000},
};

const char* status_name(FaultStatus status) {
  switch (status) {
    case FaultStatus::Untested:
      return "untested";
    case FaultStatus::Tested:
      return "tested";
    case FaultStatus::Untestable:
      return "untestable";
    case FaultStatus::Aborted:
      return "aborted";
  }
  return "?";
}

class VerdictOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(VerdictOracle, TestedReverifiesAndNoSettingRefutesAnother) {
  const net::Netlist circuit = circuits::load_circuit(GetParam());
  const AtpgOptions base;
  const std::shared_ptr<const CircuitContext> ctx =
      CircuitContext::build(circuit, base);
  const std::vector<tdgen::DelayFault>& faults = ctx->faults();
  const alg::DelayAlgebra& algebra = ctx->algebra(base.mode);

  // verdicts[s][i]: fault i under kSettings[s].
  std::vector<std::vector<FaultStatus>> verdicts;
  for (const SearchSetting& setting : kSettings) {
    AtpgOptions options = base;
    options.learn = setting.learn;
    options.local.restarts = setting.restarts;
    options.fault_budget = setting.fault_budget;
    const Fogbuster flow(ctx, options);
    std::vector<FaultStatus>& row = verdicts.emplace_back();
    long rejected = 0;
    for (const tdgen::DelayFault& fault : faults) {
      TestSequence sequence;
      StageStats stages;
      row.push_back(flow.generate_for_fault(fault, &sequence, &stages));
      if (row.back() != FaultStatus::Tested) {
        continue;
      }
      const VerifyReport report =
          verify_sequence(ctx->model(), algebra, sequence);
      if (!report.ok && ++rejected <= 5) {
        ADD_FAILURE() << setting.name << ": the test for "
                      << tdgen::fault_name(ctx->netlist(), fault)
                      << " does not re-verify: " << report.reason;
      }
    }
    EXPECT_EQ(rejected, 0) << setting.name;
  }

  long contradictions = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    bool tested = false;
    bool untestable = false;
    for (const std::vector<FaultStatus>& row : verdicts) {
      tested = tested || row[i] == FaultStatus::Tested;
      untestable = untestable || row[i] == FaultStatus::Untestable;
    }
    if (!(tested && untestable)) {
      continue;
    }
    if (++contradictions <= 5) {
      std::string detail;
      for (std::size_t s = 0; s < verdicts.size(); ++s) {
        detail += std::string("\n  ") + kSettings[s].name + ": " +
                  status_name(verdicts[s][i]);
      }
      ADD_FAILURE() << tdgen::fault_name(ctx->netlist(), faults[i])
                    << " is both tested and untestable:" << detail;
    }
  }
  EXPECT_EQ(contradictions, 0) << "of " << faults.size() << " faults";
}

INSTANTIATE_TEST_SUITE_P(Catalog, VerdictOracle,
                         ::testing::Values("s27", "s208", "s298", "s386",
                                           "s641"));

}  // namespace
}  // namespace gdf::core
