#include "stats/truescan_estimator.h"

#include "query/filter_eval.h"

namespace fj {

KeyDistResult TrueScanEstimator::EstimateKeyDists(
    const Predicate& filter, const std::vector<KeyDistRequest>& keys) const {
  KeyDistResult result;
  result.masses.resize(keys.size());
  std::vector<const Column*> cols(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    cols[i] = &table_->Col(keys[i].column);
    result.masses[i].assign(keys[i].binning->num_bins(), 0.0);
  }
  if (table_->num_rows() == 0) return result;
  CompiledPredicate compiled(*table_, filter);
  for (size_t r = 0; r < table_->num_rows(); ++r) {
    if (!compiled.Eval(r)) continue;
    result.filtered_rows += 1.0;
    for (size_t i = 0; i < keys.size(); ++i) {
      int64_t code = cols[i]->IntAt(r);
      if (code == kNullInt64) continue;
      result.masses[i][keys[i].binning->BinOf(code)] += 1.0;
    }
  }
  return result;
}

}  // namespace fj
