#include "tdsim/tdsim.hpp"

namespace gdf::tdsim {

using alg::kCarrierSet;
using alg::kEmptySet;
using alg::NodeId;
using alg::V8;
using alg::VSet;

namespace {

/// Robust activation of the fault requires a guaranteed clean transition
/// of the right polarity at the site.
bool activated(VSet fault_free_site, bool slow_to_rise) {
  return fault_free_site ==
         alg::vset_of(slow_to_rise ? V8::Rise : V8::Fall);
}

bool carrier_only(VSet s) {
  return s != kEmptySet && (s & ~kCarrierSet) == 0;
}

}  // namespace

bool Tdsim::credited(const TdsimRequest& request,
                     std::span<const alg::VSet> fault_free_ppos,
                     std::span<const alg::VSet> injected) const {
  for (const NodeId obs : model_->observation_points()) {
    if (model_->node(obs).is_po && carrier_only(injected[obs])) {
      return true;
    }
  }
  for (std::size_t k = 0; k < model_->ppis().size(); ++k) {
    if (k >= request.observable_ppo.size() || !request.observable_ppo[k]) {
      continue;
    }
    const NodeId ppo = model_->ppo_node(k);
    if (!carrier_only(injected[ppo])) {
      continue;
    }
    // The paper's invalidation trace: the fault must leave every state bit
    // the propagation phase relies on exactly as in the good machine.
    bool invalidates = false;
    for (const std::size_t q : request.needed_ppos) {
      if (q == k) {
        continue;
      }
      if (injected[model_->ppo_node(q)] != fault_free_ppos[q]) {
        invalidates = true;
        break;
      }
    }
    if (!invalidates) {
      return true;
    }
  }
  return false;
}

std::vector<bool> Tdsim::detect_exact(
    const TdsimRequest& request,
    std::span<const tdgen::DelayFault> faults) const {
  // One buffer holds the fault-free pass; each fault replays its cone on
  // it and the journal puts the fault-free sets back afterwards.
  std::vector<VSet> sets;
  sim_.run(request.stimulus, nullptr, sets);
  std::vector<VSet> fault_free_ppos;
  fault_free_ppos.reserve(model_->ppis().size());
  for (std::size_t k = 0; k < model_->ppis().size(); ++k) {
    fault_free_ppos.push_back(sets[model_->ppo_node(k)]);
  }
  alg::SetJournal journal;
  std::vector<bool> detected(faults.size(), false);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const NodeId site = model_->head_of(faults[i].line);
    if (!activated(sets[site], faults[i].slow_to_rise)) {
      continue;
    }
    sim_.inject({site, faults[i].slow_to_rise}, sets, journal);
    detected[i] = credited(request, fault_free_ppos, sets);
    alg::revert(journal, sets);
  }
  return detected;
}

}  // namespace gdf::tdsim
