// Shared search limits of the sequential engines. The paper aborts a fault
// after "100 backtracks for the sequential test pattern generator"; the
// budget object is shared by the propagation, justification and
// synchronization phases of one fault so the limit covers them together.
#pragma once

namespace gdf::semilet {

struct SemiletOptions {
  int backtrack_limit = 100;        ///< paper §6
  int max_propagation_frames = 40;  ///< forward time processing depth
  int max_sync_frames = 40;         ///< reverse time processing depth
  long decision_limit = 200000;     ///< safety net
};

class Budget {
 public:
  explicit Budget(const SemiletOptions& options) : options_(options) {}

  /// Records a backtrack; returns false once the limit is exceeded.
  bool note_backtrack() {
    ++backtracks_;
    return backtracks_ <= options_.backtrack_limit;
  }

  bool note_decision() {
    ++decisions_;
    return decisions_ <= options_.decision_limit;
  }

  /// Adds frame-resettle evaluations spent by a search under this budget
  /// (work accounting only; never limits anything).
  void note_resettle_evals(long evaluations) {
    resettle_evals_ += evaluations;
  }

  bool exhausted() const {
    return backtracks_ > options_.backtrack_limit ||
           decisions_ > options_.decision_limit;
  }

  int backtracks() const { return backtracks_; }
  long decisions() const { return decisions_; }
  long resettle_evals() const { return resettle_evals_; }
  const SemiletOptions& options() const { return options_; }

 private:
  SemiletOptions options_;
  int backtracks_ = 0;
  long decisions_ = 0;
  long resettle_evals_ = 0;
};

}  // namespace gdf::semilet
