#include "data/validation.h"

#include <cmath>

#include "base/string_util.h"

namespace dhgcn {

std::string SampleValidationReport::ToString() const {
  return StrCat("checked ", checked, " samples, quarantined ",
                quarantined(), " (", bad_coordinates,
                " non-finite coordinates, ", bad_labels,
                " out-of-range labels)");
}

bool TensorHasFiniteValues(const Tensor& tensor) {
  const float* p = tensor.data();
  for (int64_t i = 0; i < tensor.numel(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

bool SampleHasFiniteData(const SkeletonSample& sample) {
  return TensorHasFiniteValues(sample.data);
}

SampleValidationReport QuarantineInvalidSamples(
    std::vector<SkeletonSample>* samples, int64_t num_classes) {
  SampleValidationReport report;
  report.checked = static_cast<int64_t>(samples->size());
  std::vector<SkeletonSample> kept;
  kept.reserve(samples->size());
  for (SkeletonSample& sample : *samples) {
    if (sample.label < 0 || sample.label >= num_classes) {
      ++report.bad_labels;
    } else if (!SampleHasFiniteData(sample)) {
      ++report.bad_coordinates;
    } else {
      kept.push_back(std::move(sample));
    }
  }
  *samples = std::move(kept);
  return report;
}

SampleValidationReport QuarantineInvalidIndices(
    const SkeletonDataset& dataset, std::vector<int64_t>* indices) {
  SampleValidationReport report;
  report.checked = static_cast<int64_t>(indices->size());
  std::vector<int64_t> kept;
  kept.reserve(indices->size());
  for (int64_t index : *indices) {
    const SkeletonSample& sample = dataset.sample(index);
    if (sample.label < 0 || sample.label >= dataset.num_classes()) {
      ++report.bad_labels;
    } else if (!SampleHasFiniteData(sample)) {
      ++report.bad_coordinates;
    } else {
      kept.push_back(index);
    }
  }
  *indices = std::move(kept);
  return report;
}

}  // namespace dhgcn
