#include "quant/precision.h"

#include <cstdlib>

#include "base/string_util.h"

namespace dhgcn {

Result<Precision> ParsePrecision(const std::string& text) {
  if (text == "fp32") return Precision::kFp32;
  if (text == "int8") return Precision::kInt8;
  return Status::InvalidArgument(
      StrCat("unknown precision '", text, "' (fp32|int8)"));
}

const char* PrecisionName(Precision precision) {
  switch (precision) {
    case Precision::kFp32:
      return "fp32";
    case Precision::kInt8:
      return "int8";
  }
  return "?";
}

Result<Precision> ResolvePrecision(const std::string& flag_text) {
  if (!flag_text.empty()) return ParsePrecision(flag_text);
  // Read once at first use; flag parsing happens on the main thread
  // before any compute, the same contract as DHGCN_THREADS.
  static const std::string* env_value = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* env = std::getenv("DHGCN_PRECISION");
    // lint: allow-naked-new — process-lifetime cached env string.
    return new std::string(env != nullptr ? env : "");
  }();
  if (env_value->empty()) return Precision::kFp32;
  return ParsePrecision(*env_value);
}

}  // namespace dhgcn
