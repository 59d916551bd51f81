#include "fausim/fausim.hpp"

#include <algorithm>

#include "base/error.hpp"

namespace gdf::fausim {

using sim::Lv;

Fausim::Fausim(const net::Netlist& nl)
    : Fausim(sim::FlatCircuit::build(nl)) {}

Fausim::Fausim(std::shared_ptr<const sim::FlatCircuit> fc)
    : fc_(std::move(fc)), scalar_(fc_), packed_(fc_) {}

Fausim::GoodTrace Fausim::simulate_good(std::span<const sim::InputVec> frames,
                                        Rng& rng) const {
  GoodTrace trace;
  trace.filled.reserve(frames.size());
  for (const sim::InputVec& pis : frames) {
    sim::InputVec filled = pis;
    for (Lv& v : filled) {
      if (v == Lv::X) {
        v = rng.next_bool() ? Lv::One : Lv::Zero;
      }
    }
    trace.filled.push_back(std::move(filled));
  }
  trace.states.reserve(frames.size() + 1);
  trace.lines.reserve(frames.size());
  trace.states.push_back(scalar_.unknown_state());
  for (const sim::InputVec& pis : trace.filled) {
    // Frames settle directly into the trace's own storage — no staging
    // buffer to copy out of.
    trace.lines.emplace_back();
    scalar_.eval_frame(pis, trace.states.back(), trace.lines.back());
    trace.states.push_back(scalar_.next_state(trace.lines.back()));
  }
  scalar_evals_ += static_cast<long>(frames.size()) *
                   static_cast<long>(fc_->body_count());
  return trace;
}

std::vector<bool> Fausim::ppo_observability(
    const sim::StateVec& state_after_fast,
    std::span<const sim::InputVec> propagation_frames) const {
  const std::size_t n_ff = fc_->dffs().size();
  GDF_ASSERT(state_after_fast.size() == n_ff, "state size mismatch");
  std::vector<bool> observable(n_ff, false);

  // Only flip-flops with a definite captured value can carry a single-bit
  // good/faulty difference.
  std::vector<std::size_t> flippable;
  flippable.reserve(n_ff);
  for (std::size_t k = 0; k < n_ff; ++k) {
    if (sim::is_binary(state_after_fast[k])) {
      flippable.push_back(k);
    }
  }
  if (flippable.empty() || propagation_frames.empty()) {
    return observable;
  }

  // The propagation frames apply the same PIs in every lane: convert them
  // once for all passes.
  const std::size_t n_pi = fc_->inputs().size();
  pi_frames_.resize(propagation_frames.size());
  for (std::size_t f = 0; f < propagation_frames.size(); ++f) {
    GDF_ASSERT(propagation_frames[f].size() == n_pi, "PI size mismatch");
    pi_frames_[f].resize(n_pi);
    for (std::size_t i = 0; i < n_pi; ++i) {
      pi_frames_[f][i] = sim::w3_broadcast(propagation_frames[f][i]);
    }
  }

  // Lane 0 replays the good machine; lane 1 + l flips flipped[l].
  constexpr std::size_t kPerPass = sim::Word3::kLanes - 1;
  for (std::size_t begin = 0; begin < flippable.size(); begin += kPerPass) {
    const std::span<const std::size_t> flipped =
        std::span<const std::size_t>(flippable).subspan(
            begin, std::min(kPerPass, flippable.size() - begin));
    state_.resize(n_ff);
    for (std::size_t k = 0; k < n_ff; ++k) {
      state_[k] = sim::w3_broadcast(state_after_fast[k]);
    }
    for (std::size_t l = 0; l < flipped.size(); ++l) {
      const std::size_t ff = flipped[l];
      const Lv bad = state_after_fast[ff] == Lv::One ? Lv::Zero : Lv::One;
      sim::w3_set_lane(state_[ff], static_cast<unsigned>(l + 1), bad);
    }

    // Lanes of this pass whose difference has not reached a PO yet.
    std::uint64_t pending = 0;
    for (std::size_t l = 0; l < flipped.size(); ++l) {
      pending |= std::uint64_t{1} << (l + 1);
    }
    for (const std::vector<sim::Word3>& pi_words : pi_frames_) {
      packed_.eval_frame(pi_words, state_, lines_);
      lane_evals_ += static_cast<long>(fc_->body_count()) *
                     static_cast<long>(sim::Word3::kLanes);
      for (const net::GateId po : fc_->outputs()) {
        const sim::Word3& w = lines_[po];
        // A lane differs from the good machine (lane 0) when both are
        // definite and opposite: good 1 => the lane's zero rail, good 0 =>
        // its one rail.
        const bool good_one = (w.ones & 1u) != 0;
        const bool good_zero = (w.zeros & 1u) != 0;
        if (!good_one && !good_zero) {
          continue;
        }
        std::uint64_t hits = (good_one ? w.zeros : w.ones) & pending;
        pending &= ~hits;
        while (hits != 0) {
          const unsigned lane = static_cast<unsigned>(__builtin_ctzll(hits));
          hits &= hits - 1;
          observable[flipped[lane - 1]] = true;
        }
      }
      if (pending == 0) {
        break;  // every lane of this pass already observed
      }
      packed_.next_state(lines_, next_);
      state_.swap(next_);
    }
  }
  return observable;
}

KernelCounters Fausim::take_kernel_counters() {
  KernelCounters out;
  out.scalar_evals = scalar_evals_;
  out.lane_evals_64 = lane_evals_;
  scalar_evals_ = 0;
  lane_evals_ = 0;
  return out;
}

}  // namespace gdf::fausim
