#include "stats/cardinality_estimator.h"

#include <stdexcept>

#include "util/bytes.h"

namespace fj {

std::unordered_map<uint64_t, double> CardinalityEstimator::EstimateSubplans(
    const Query& query, const std::vector<uint64_t>& masks) const {
  std::unordered_map<uint64_t, double> out;
  out.reserve(masks.size());
  for (uint64_t mask : masks) {
    out[mask] = Estimate(query.InducedSubquery(mask));
  }
  return out;
}

std::unordered_map<uint64_t, double>
CardinalityEstimator::EstimateSubplansTraced(
    const Query& query, const std::vector<uint64_t>& masks,
    obs::RequestTrace* trace) const {
  if (trace == nullptr) return EstimateSubplans(query, masks);
  obs::SpanTimer span;
  std::unordered_map<uint64_t, double> out = EstimateSubplans(query, masks);
  span.Record(trace, obs::Stage::kEstimate);
  return out;
}

double CardinalityEstimator::ApplyInsert(const std::string& table_name,
                                         size_t /*first_new_row*/) {
  throw std::logic_error(Name() +
                         " does not support incremental inserts (table " +
                         table_name + "); retrain instead");
}

double CardinalityEstimator::ApplyDelete(const std::string& table_name,
                                         size_t /*first_deleted_row*/) {
  throw std::logic_error(Name() +
                         " does not support incremental deletes (table " +
                         table_name + "); retrain instead");
}

size_t CardinalityEstimator::ModelSizeBytes() const {
  return SupportsSnapshot() ? SerializedModelSizeBytes() : 0;
}

void CardinalityEstimator::Save(ByteWriter& /*w*/) const {
  throw std::logic_error(Name() + " does not support model snapshots");
}

void CardinalityEstimator::Load(ByteReader& /*r*/) {
  throw std::logic_error(Name() + " does not support model snapshots");
}

size_t CardinalityEstimator::SerializedModelSizeBytes() const {
  ByteWriter counter = ByteWriter::Counting();
  Save(counter);
  return counter.size();
}

}  // namespace fj
