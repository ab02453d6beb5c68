#ifndef DHGCN_BASE_RUNTIME_FLAGS_H_
#define DHGCN_BASE_RUNTIME_FLAGS_H_

#include <cstdint>
#include <string>

#include "base/flags.h"
#include "base/result.h"
#include "quant/precision.h"

namespace dhgcn {

/// \brief The runtime knobs every CLI tool shares, parsed and applied
/// in one place.
///
/// `dhgcn_train` and `dhgcn_serve` expose the same process-wide
/// execution controls — `--threads`/`DHGCN_THREADS` and
/// `--precision`/`DHGCN_PRECISION` — and used to duplicate the
/// registration, validation, and singleton plumbing. Usage:
///
///   RuntimeFlags rt;
///   rt.threads = 1;            // tool-specific default, before Register
///   rt.Register(&flags);
///   DHGCN_RETURN_IF_ERROR(flags.Parse(argc, argv));
///   DHGCN_RETURN_IF_ERROR(rt.Apply());
///   ... use rt.resolved_precision ...
///
/// `Apply` validates the values, configures the ThreadPool singleton,
/// and resolves the effective precision (flag text beats the
/// environment variable, default fp32).
struct RuntimeFlags {
  // Flag storage; set a field before Register to change the default.
  int64_t threads = 0;
  std::string precision;  // "" = DHGCN_PRECISION env, else fp32

  // Output of Apply().
  Precision resolved_precision = Precision::kFp32;

  void Register(FlagSet* flags);
  Status Apply();
};

}  // namespace dhgcn

#endif  // DHGCN_BASE_RUNTIME_FLAGS_H_
