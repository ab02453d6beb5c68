#ifndef DHGCN_DATA_VALIDATION_H_
#define DHGCN_DATA_VALIDATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/synthetic_generator.h"

namespace dhgcn {

/// \brief Ingest-time sample validation.
///
/// Corrupt capture files routinely contain NaN/Inf coordinates or labels
/// outside the class range; a single such sample poisons every gradient
/// it touches. These helpers quarantine (drop) invalid samples at load
/// time and surface the counts so silent data loss is visible in logs.

struct SampleValidationReport {
  int64_t checked = 0;
  int64_t bad_coordinates = 0;  ///< samples with NaN/Inf values
  int64_t bad_labels = 0;       ///< labels outside [0, num_classes)
  int64_t quarantined() const { return bad_coordinates + bad_labels; }
  std::string ToString() const;
};

/// True when every element of `tensor` is finite. The shared core of the
/// ingest-quarantine rules, also used by the serving admission path so a
/// NaN-poisoned request fails alone instead of poisoning its micro-batch.
bool TensorHasFiniteValues(const Tensor& tensor);

/// True when every coordinate of `sample.data` is finite.
bool SampleHasFiniteData(const SkeletonSample& sample);

/// Removes invalid samples from `samples` in place (order preserved).
SampleValidationReport QuarantineInvalidSamples(
    std::vector<SkeletonSample>* samples, int64_t num_classes);

/// Removes indices referring to invalid samples of `dataset` in place.
SampleValidationReport QuarantineInvalidIndices(
    const SkeletonDataset& dataset, std::vector<int64_t>* indices);

}  // namespace dhgcn

#endif  // DHGCN_DATA_VALIDATION_H_
