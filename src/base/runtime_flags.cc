#include "base/runtime_flags.h"

#include "base/string_util.h"
#include "base/thread_pool.h"

namespace dhgcn {

void RuntimeFlags::Register(FlagSet* flags) {
  flags->AddInt64("threads", &threads,
                  "intra-op compute threads; results are bit-identical "
                  "for any value (0 = DHGCN_THREADS env or hardware "
                  "default)");
  flags->AddString("precision", &precision,
                   "inference numerics: fp32|int8 (int8 = post-training "
                   "quantized GEMMs with a calibration pass, ~0.5% top-1 "
                   "budget; empty = DHGCN_PRECISION env or fp32). "
                   "Training always runs fp32.");
}

Status RuntimeFlags::Apply() {
  if (threads < 0) {
    return Status::InvalidArgument(
        StrCat("--threads must be >= 0, got ", threads));
  }
  if (threads > 0) ThreadPool::Get().SetThreads(threads);
  DHGCN_ASSIGN_OR_RETURN(resolved_precision, ResolvePrecision(precision));
  return Status::OK();
}

}  // namespace dhgcn
