#include "stats/sampling_estimator.h"

#include <algorithm>

#include "query/filter_eval.h"
#include "util/bytes.h"

namespace fj {

SamplingEstimator::SamplingEstimator(const Table& table, double rate,
                                     uint64_t seed)
    : table_(&table), rate_(std::clamp(rate, 1e-6, 1.0)), seed_(seed) {
  DrawSample();
}

SamplingEstimator::SamplingEstimator(const Table& table, UntrainedTag)
    : table_(&table), rate_(1.0), seed_(0) {}

std::unique_ptr<SamplingEstimator> SamplingEstimator::MakeUntrained(
    const Table& table) {
  return std::unique_ptr<SamplingEstimator>(
      new SamplingEstimator(table, UntrainedTag{}));
}

void SamplingEstimator::Save(ByteWriter& w) const {
  w.F64(rate_);
  w.U64(seed_);
  w.F64(scale_);
  w.U32(static_cast<uint32_t>(sample_rows_.size()));
  for (uint32_t r : sample_rows_) w.U32(r);
}

void SamplingEstimator::Load(ByteReader& r) {
  rate_ = r.F64();
  seed_ = r.U64();
  scale_ = r.F64();
  uint32_t n = r.CountU32(sizeof(uint32_t));
  sample_rows_.clear();
  sample_rows_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t row = r.U32();
    if (row >= table_->num_rows()) {
      throw SerializeError("sample row id past the bound table's end");
    }
    sample_rows_.push_back(row);
  }
  std::lock_guard<std::mutex> lock(bin_codes_mu_);
  bin_codes_.clear();
}

void SamplingEstimator::DrawSample() {
  {
    std::lock_guard<std::mutex> lock(bin_codes_mu_);
    bin_codes_.clear();  // codes are per sample row; the rows change
  }
  sample_rows_.clear();
  size_t n = table_->num_rows();
  size_t target = std::max<size_t>(static_cast<size_t>(rate_ * static_cast<double>(n)), 1);
  target = std::min(target, n);
  Rng rng(seed_, 0x5eedu);
  sample_rows_.reserve(target);
  for (size_t r : rng.SampleWithoutReplacement(n, target)) {
    sample_rows_.push_back(static_cast<uint32_t>(r));
  }
  std::sort(sample_rows_.begin(), sample_rows_.end());
  scale_ = sample_rows_.empty()
               ? 0.0
               : static_cast<double>(n) / static_cast<double>(sample_rows_.size());
}

const std::vector<uint32_t>& SamplingEstimator::BinCodesFor(
    const Column& col, const Binning& binning) const {
  auto key = std::make_pair(&col, &binning);
  {
    std::lock_guard<std::mutex> lock(bin_codes_mu_);
    auto it = bin_codes_.find(key);
    if (it != bin_codes_.end()) return it->second;
  }
  // Build outside the lock (two racing threads may both build; the first
  // insert wins and they are identical anyway — BinOf is pure).
  std::vector<uint32_t> codes;
  codes.reserve(sample_rows_.size());
  for (uint32_t r : sample_rows_) {
    int64_t v = col.IntAt(r);
    codes.push_back(v == kNullInt64 ? kNullBin : binning.BinOf(v));
  }
  std::lock_guard<std::mutex> lock(bin_codes_mu_);
  return bin_codes_.emplace(key, std::move(codes)).first->second;
}

KeyDistResult SamplingEstimator::EstimateKeyDists(
    const Predicate& filter, const std::vector<KeyDistRequest>& keys) const {
  KeyDistResult result;
  result.masses.resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    result.masses[i].assign(keys[i].binning->num_bins(), 0.0);
  }
  size_t hits = 0;
  if (!sample_rows_.empty()) {
    // Two hoists out of the row loop, neither moving a single bit: the
    // filter is compiled once (EvalRow redoes per-node column-name lookups
    // every row), and each key's per-sample-row bin codes come from the
    // memo (Binning::BinOf hash probes become array loads).
    CompiledPredicate compiled(*table_, filter);
    std::vector<const uint32_t*> codes(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      codes[i] = BinCodesFor(table_->Col(keys[i].column),
                             *keys[i].binning).data();
    }
    for (size_t j = 0; j < sample_rows_.size(); ++j) {
      if (!compiled.Eval(sample_rows_[j])) continue;
      ++hits;
      for (size_t i = 0; i < keys.size(); ++i) {
        uint32_t b = codes[i][j];
        if (b == kNullBin) continue;
        result.masses[i][b] += scale_;
      }
    }
  }
  // Zero hits bound selectivity below ~1/|sample|, they do not prove
  // emptiness; report half a sample row to avoid catastrophic
  // underestimation downstream.
  result.filtered_rows = std::max(static_cast<double>(hits), 0.5) * scale_;
  return result;
}

void SamplingEstimator::Refresh(const Table& table) {
  table_ = &table;
  DrawSample();
}

size_t SamplingEstimator::MemoryBytes() const {
  return sample_rows_.size() * sizeof(uint32_t);
}

}  // namespace fj
