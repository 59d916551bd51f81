#include "sim/parallel3.hpp"

namespace gdf::sim {

ParallelSim3::ParallelSim3(const net::Netlist& nl)
    : fc_(FlatCircuit::build(nl)) {}

ParallelSim3::ParallelSim3(std::shared_ptr<const FlatCircuit> fc)
    : fc_(std::move(fc)) {
  GDF_ASSERT(fc_ != nullptr, "null flat circuit");
}

void ParallelSim3::eval_frame(std::span<const Word3> pis,
                              std::span<const Word3> state,
                              std::vector<Word3>& line_values) const {
  const FlatCircuit& fc = *fc_;
  GDF_ASSERT(pis.size() == fc.inputs().size(), "PI word count mismatch");
  GDF_ASSERT(state.size() == fc.dffs().size(), "state word count mismatch");
  line_values.assign(fc.line_count(), Word3{});
  for (std::size_t i = 0; i < pis.size(); ++i) {
    line_values[fc.inputs()[i]] = pis[i];
  }
  for (std::size_t i = 0; i < state.size(); ++i) {
    line_values[fc.dffs()[i]] = state[i];
  }
  eval_flat(fc, Word3Ops{}, line_values.data());
}

void ParallelSim3::next_state(std::span<const Word3> line_values,
                              std::vector<Word3>& next) const {
  const std::span<const net::GateId> taps = fc_->dff_data();
  next.resize(taps.size());
  for (std::size_t i = 0; i < taps.size(); ++i) {
    next[i] = line_values[taps[i]];
  }
}

}  // namespace gdf::sim
