#include "algebra/frame_sim.hpp"

#include "base/error.hpp"

namespace gdf::alg {

VSet vset_primary_from_frames(int initial_bit, int final_bit) {
  VSet out = 0;
  for (const V8 v : {V8::Zero, V8::One, V8::Rise, V8::Fall}) {
    const bool init_ok = initial_bit < 0 || v8_initial(v) == initial_bit;
    const bool final_ok = final_bit < 0 || v8_final(v) == final_bit;
    if (init_ok && final_ok) {
      out |= vset_of(v);
    }
  }
  return out;
}

namespace {

/// One non-source node evaluation over already-settled input sets. `b` is
/// ignored for unary kinds.
inline VSet eval_node(const DelayAlgebra& algebra, NodeKind kind, VSet a,
                      VSet b) {
  switch (kind) {
    case NodeKind::Buf:
      return a;
    case NodeKind::Not:
      return algebra.set_not(a);
    case NodeKind::And2:
      return algebra.set_fwd(Op2::And, a, b);
    case NodeKind::Or2:
      return algebra.set_fwd(Op2::Or, a, b);
    case NodeKind::Xor2:
      return algebra.set_fwd(Op2::Xor, a, b);
    case NodeKind::Pi:
    case NodeKind::Ppi:
      break;
  }
  return kEmptySet;
}

}  // namespace

void revert(SetJournal& journal, std::vector<VSet>& node_sets) {
  for (auto it = journal.rbegin(); it != journal.rend(); ++it) {
    node_sets[it->first] = it->second;
  }
  journal.clear();
}

long TwoFrameSim::replay(std::vector<VSet>& node_sets, const FaultSpec* fault,
                         SetJournal* journal) const {
  const AtpgModel& m = *model_;
  const NodeKind* kinds = m.kinds().data();
  const NodeId* in0s = m.in0s().data();
  const NodeId* in1s = m.in1s().data();
  VSet* sets = node_sets.data();
  const NodeId site = fault != nullptr ? fault->site : kNoNode;
  // Scheduled ids are always readers of changed nodes — never sources —
  // and pop ascending, so every input is final when its consumer
  // evaluates. The wave dies wherever a value is unchanged.
  long evaluations = 0;
  NodeId id;
  while (work_.pop(&id)) {
    ++evaluations;
    const NodeId in0 = in0s[id];
    const NodeId in1 = in1s[id];
    VSet out = eval_node(*algebra_, kinds[id], sets[in0],
                         in1 != kNoNode ? sets[in1] : kEmptySet);
    if (id == site) {
      out = DelayAlgebra::site_transform(out, fault->slow_to_rise);
    }
    if (out == sets[id]) {
      continue;
    }
    if (journal != nullptr) {
      journal->emplace_back(id, sets[id]);
    }
    sets[id] = out;
    for (const NodeId reader : m.fanout(id)) {
      work_.push(reader);
    }
  }
  return evaluations;
}

void TwoFrameSim::inject(const FaultSpec& fault, std::vector<VSet>& node_sets,
                         SetJournal& journal) const {
  GDF_ASSERT(node_sets.size() == model_->node_count(),
             "node set size mismatch");
  const VSet before = node_sets[fault.site];
  const VSet transformed =
      DelayAlgebra::site_transform(before, fault.slow_to_rise);
  if (transformed == before) {
    return;  // no activating transition at the site: the cone is unchanged
  }
  journal.emplace_back(fault.site, before);
  node_sets[fault.site] = transformed;
  work_.begin(model_->node_count());
  for (const NodeId reader : model_->fanout(fault.site)) {
    work_.push(reader);
  }
  replay(node_sets, nullptr, &journal);
}

long TwoFrameSim::rerun_sources(
    std::span<const std::pair<NodeId, VSet>> changed, const FaultSpec* fault,
    std::vector<VSet>& node_sets, SetJournal* journal) const {
  const AtpgModel& m = *model_;
  GDF_ASSERT(node_sets.size() == m.node_count(), "node set size mismatch");
  const NodeId site = fault != nullptr ? fault->site : kNoNode;
  work_.begin(m.node_count());
  bool any = false;
  for (const auto& [src, raw] : changed) {
    VSet v = static_cast<VSet>(raw & kPrimaryDomain);
    if (src == site) {
      v = DelayAlgebra::site_transform(v, fault->slow_to_rise);
    }
    if (v != node_sets[src]) {
      if (journal != nullptr) {
        journal->emplace_back(src, node_sets[src]);
      }
      node_sets[src] = v;
      for (const NodeId reader : m.fanout(src)) {
        work_.push(reader);
      }
      any = true;
    }
  }
  return any ? replay(node_sets, fault, journal) : 0;
}

RegisterSettle TwoFrameSim::settle_registers(TwoFrameStimulus& stimulus,
                                             const FaultSpec* fault,
                                             std::vector<VSet>& node_sets,
                                             bool warm,
                                             SetJournal* journal) const {
  const AtpgModel& m = *model_;
  std::vector<VSet>& ppi_sets = stimulus.ppi_sets;
  GDF_ASSERT(ppi_sets.size() == m.ppis().size(),
             "PPI stimulus size mismatch");
  GDF_ASSERT(warm || journal == nullptr, "a cold settle takes no journal");
  RegisterSettle result;
  if (!warm) {
    run(stimulus, fault, node_sets);
    settled_ppis_ = ppi_sets;
    result.evaluations = static_cast<long>(
        m.node_count() - m.pis().size() - m.ppis().size());
  } else {
    GDF_ASSERT(stimulus.pi_sets.size() == m.pis().size(),
               "PI stimulus size mismatch");
    source_changes_.clear();
    for (std::size_t i = 0; i < m.pis().size(); ++i) {
      source_changes_.emplace_back(m.pis()[i], stimulus.pi_sets[i]);
    }
    settled_ppis_.resize(ppi_sets.size());
    for (std::size_t k = 0; k < ppi_sets.size(); ++k) {
      // The guess keeps the PPI's initials, so the PPO initials it settles
      // are those of the unpruned stimulus; a guess that would drop an
      // initial falls back to the unpruned set.
      const VSet guess = vset_with_final_in(
          ppi_sets[k], vset_finals(node_sets[m.ppis()[k]]));
      settled_ppis_[k] = vset_initials(guess) == vset_initials(ppi_sets[k])
                             ? guess
                             : ppi_sets[k];
      source_changes_.emplace_back(m.ppis()[k], settled_ppis_[k]);
    }
    result.evaluations +=
        rerun_sources(source_changes_, fault, node_sets, journal);
  }
  // Round n prunes against the PPO initials of run(S_n) — the reference
  // iteration. When the PPI initials are kept (always, for PPIs that allow
  // every final) the second round finds nothing left to prune.
  for (;;) {
    source_changes_.clear();
    for (std::size_t k = 0; k < ppi_sets.size(); ++k) {
      const VSet pruned = vset_with_final_in(
          ppi_sets[k], vset_initials(node_sets[m.ppo_node(k)]));
      if (pruned == kEmptySet) {
        result.consistent = false;
        return result;
      }
      ppi_sets[k] = pruned;
      if (pruned != settled_ppis_[k]) {
        settled_ppis_[k] = pruned;
        source_changes_.emplace_back(m.ppis()[k], pruned);
      }
    }
    if (source_changes_.empty()) {
      return result;
    }
    result.evaluations +=
        rerun_sources(source_changes_, fault, node_sets, journal);
    ++result.resettles;
  }
}

void TwoFrameSim::run(const TwoFrameStimulus& stimulus,
                      const FaultSpec* fault,
                      std::vector<VSet>& node_sets) const {
  const AtpgModel& m = *model_;
  GDF_ASSERT(stimulus.pi_sets.size() == m.pis().size(),
             "PI stimulus size mismatch");
  GDF_ASSERT(stimulus.ppi_sets.size() == m.ppis().size(),
             "PPI stimulus size mismatch");
  const std::size_t n_nodes = m.node_count();
  node_sets.assign(n_nodes, kEmptySet);
  for (std::size_t i = 0; i < m.pis().size(); ++i) {
    node_sets[m.pis()[i]] =
        static_cast<VSet>(stimulus.pi_sets[i] & kPrimaryDomain);
  }
  for (std::size_t i = 0; i < m.ppis().size(); ++i) {
    node_sets[m.ppis()[i]] =
        static_cast<VSet>(stimulus.ppi_sets[i] & kPrimaryDomain);
  }
  // Node ids are topological, so one SoA sweep settles the whole model.
  const NodeKind* kinds = m.kinds().data();
  const NodeId* in0s = m.in0s().data();
  const NodeId* in1s = m.in1s().data();
  VSet* sets = node_sets.data();
  const NodeId site = fault != nullptr ? fault->site : kNoNode;
  for (NodeId id = 0; id < n_nodes; ++id) {
    const NodeKind kind = kinds[id];
    if (kind != NodeKind::Pi && kind != NodeKind::Ppi) {
      const NodeId in1 = in1s[id];
      sets[id] = eval_node(*algebra_, kind, sets[in0s[id]],
                           in1 != kNoNode ? sets[in1] : kEmptySet);
    }
    if (id == site) {
      sets[id] = DelayAlgebra::site_transform(sets[id], fault->slow_to_rise);
    }
  }
}

bool TwoFrameSim::guaranteed_observation(const TwoFrameStimulus& stimulus,
                                         const FaultSpec& fault,
                                         std::vector<NodeId>* where) const {
  std::vector<VSet> node_sets;
  run(stimulus, &fault, node_sets);
  bool observed = false;
  for (const NodeId obs : model_->observation_points()) {
    const VSet s = node_sets[obs];
    if (s != kEmptySet && (s & ~kCarrierSet) == 0) {
      observed = true;
      if (where != nullptr) {
        where->push_back(obs);
      }
    }
  }
  return observed;
}

}  // namespace gdf::alg
