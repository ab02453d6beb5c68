#ifndef DHGCN_QUANT_PRECISION_H_
#define DHGCN_QUANT_PRECISION_H_

#include <string>

#include "base/result.h"

namespace dhgcn {

/// Inference numeric precision, selected via `--precision fp32|int8` or
/// the `DHGCN_PRECISION` environment variable:
///  - kFp32: the default float32 kernels.
///  - kInt8: post-training-quantized GEMM ops inside a fused execution
///           plan (per-tensor u8 activations, per-channel s8 weights,
///           dequantize-fused epilogues — see DESIGN.md §15). Training
///           and calibration always run fp32.
enum class Precision { kFp32, kInt8 };

Result<Precision> ParsePrecision(const std::string& text);
const char* PrecisionName(Precision precision);

/// Resolves the effective precision: a non-empty `flag_text` wins,
/// otherwise `DHGCN_PRECISION` (read once at first use), otherwise
/// fp32.
Result<Precision> ResolvePrecision(const std::string& flag_text);

}  // namespace dhgcn

#endif  // DHGCN_QUANT_PRECISION_H_
