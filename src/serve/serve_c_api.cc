#include "serve/serve_c_api.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>

#include "base/thread_annotations.h"
#include "serve/server.h"

using dhgcn::DhgcnConfig;
using dhgcn::InferenceServer;
using dhgcn::MillisToNanos;
using dhgcn::Mutex;
using dhgcn::MutexLock;
using dhgcn::ServeResponse;
using dhgcn::ServerOptions;
using dhgcn::SkeletonLayoutType;
using dhgcn::Status;
using dhgcn::SubmitOptions;
using dhgcn::Tensor;

/// The opaque handle: the server plus a guarded last-error slot. The
/// slot is a fixed in-handle buffer, not a std::string: the ABI hands
/// out a pointer into it from dhgcn_serve_last_error, and a string's
/// c_str() would dangle the moment a concurrent SetLastError reassigned
/// it. Fixed storage keeps the returned pointer valid for the handle's
/// whole lifetime (a racing writer can at worst be observed mid-message,
/// never as a use-after-free).
struct dhgcn_serve_server {
  static constexpr size_t kErrBufLen = 256;
  std::unique_ptr<InferenceServer> server;
  mutable Mutex err_mu;
  char last_error[kErrBufLen] DHGCN_GUARDED_BY(err_mu) = "";
};

namespace {

int StatusToCode(const Status& status) {
  if (status.ok()) return DHGCN_SERVE_OK;
  if (status.IsInvalidArgument()) return DHGCN_SERVE_INVALID_ARGUMENT;
  if (status.IsDeadlineExceeded()) return DHGCN_SERVE_DEADLINE_EXCEEDED;
  if (status.IsOverloaded()) return DHGCN_SERVE_OVERLOADED;
  if (status.IsFailedPrecondition()) return DHGCN_SERVE_UNAVAILABLE;
  return DHGCN_SERVE_INTERNAL;
}

void SetLastError(dhgcn_serve_server* server, const std::string& message) {
  MutexLock lock(&server->err_mu);
  size_t n =
      std::min(message.size(), dhgcn_serve_server::kErrBufLen - 1);
  std::memcpy(server->last_error, message.data(), n);
  server->last_error[n] = '\0';
}

void FillErrBuf(char* err_buf, int64_t err_buf_len,
                const std::string& message) {
  if (err_buf == nullptr || err_buf_len <= 0) return;
  size_t n = std::min(message.size(),
                      static_cast<size_t>(err_buf_len - 1));
  std::memcpy(err_buf, message.data(), n);
  err_buf[n] = '\0';
}

}  // namespace

extern "C" {

dhgcn_serve_server* dhgcn_serve_open(const char* checkpoint_path,
                                     const char* config_name,
                                     const char* layout,
                                     int64_t num_classes, int64_t frames,
                                     int64_t workers,
                                     int64_t queue_capacity,
                                     int64_t max_batch, char* err_buf,
                                     int64_t err_buf_len) {
  std::string config_str = config_name != nullptr ? config_name : "tiny";
  std::string layout_str = layout != nullptr ? layout : "ntu";

  SkeletonLayoutType layout_type;
  if (layout_str == "ntu") {
    layout_type = SkeletonLayoutType::kNtu25;
  } else if (layout_str == "kinetics") {
    layout_type = SkeletonLayoutType::kKinetics18;
  } else {
    FillErrBuf(err_buf, err_buf_len,
               "unknown layout \"" + layout_str +
                   "\" (want ntu | kinetics)");
    return nullptr;
  }

  DhgcnConfig config;
  if (config_str == "tiny") {
    config = DhgcnConfig::Tiny(layout_type, num_classes);
  } else if (config_str == "small") {
    config = DhgcnConfig::Small(layout_type, num_classes);
  } else if (config_str == "paper") {
    config = DhgcnConfig::Paper(layout_type, num_classes);
  } else {
    FillErrBuf(err_buf, err_buf_len,
               "unknown config \"" + config_str +
                   "\" (want tiny | small | paper)");
    return nullptr;
  }

  ServerOptions options;
  if (workers > 0) options.worker_count = workers;
  if (queue_capacity > 0) options.batcher.queue_capacity = queue_capacity;
  if (max_batch > 0) options.batcher.max_batch_size = max_batch;

  std::string path =
      checkpoint_path != nullptr ? checkpoint_path : "";
  auto created = InferenceServer::Create(path, config, frames, options);
  if (!created.ok()) {
    FillErrBuf(err_buf, err_buf_len, created.status().ToString());
    return nullptr;
  }
  // lint: allow-naked-new — C ABI boundary; ownership passes to the
  // caller, reclaimed by dhgcn_serve_close.
  dhgcn_serve_server* handle = new dhgcn_serve_server();
  handle->server = created.MoveValue();
  return handle;
}

int64_t dhgcn_serve_clip_len(const dhgcn_serve_server* server) {
  if (server == nullptr) return 0;
  return server->server->model().clip_numel();
}

int64_t dhgcn_serve_num_classes(const dhgcn_serve_server* server) {
  if (server == nullptr) return 0;
  return server->server->model().num_classes();
}

int dhgcn_serve_infer(dhgcn_serve_server* server, const float* clip,
                      int64_t clip_len, int64_t deadline_ms,
                      float* logits_out, int64_t logits_len) {
  if (server == nullptr) return DHGCN_SERVE_INVALID_ARGUMENT;
  const dhgcn::FrozenModel& model = server->server->model();
  if (clip == nullptr || clip_len != model.clip_numel()) {
    SetLastError(server, "clip_len does not match the served model");
    return DHGCN_SERVE_INVALID_ARGUMENT;
  }
  if (logits_out == nullptr || logits_len < model.num_classes()) {
    SetLastError(server, "logits buffer too small");
    return DHGCN_SERVE_INVALID_ARGUMENT;
  }
  Tensor input({model.config().in_channels, model.frames(),
                model.num_joints()});
  std::memcpy(input.data(), clip,
              static_cast<size_t>(clip_len) * sizeof(float));
  SubmitOptions options;
  options.deadline_ns = deadline_ms > 0 ? MillisToNanos(deadline_ms) : 0;
  ServeResponse response = server->server->Infer(input, options);
  if (!response.status.ok()) {
    SetLastError(server, response.status.ToString());
    return StatusToCode(response.status);
  }
  std::memcpy(logits_out, response.logits.data(),
              static_cast<size_t>(model.num_classes()) * sizeof(float));
  return DHGCN_SERVE_OK;
}

int dhgcn_serve_health_state(const dhgcn_serve_server* server) {
  if (server == nullptr) return DHGCN_SERVE_HEALTH_UNHEALTHY;
  return static_cast<int>(server->server->Health().state);
}

const char* dhgcn_serve_last_error(const dhgcn_serve_server* server) {
  if (server == nullptr) return "null server handle";
  // The lock orders this read against in-flight SetLastError writes;
  // the returned pointer stays valid after release because the buffer
  // is in-handle fixed storage (see the handle comment).
  MutexLock lock(&server->err_mu);
  return server->last_error;
}

void dhgcn_serve_close(dhgcn_serve_server* server) {
  if (server == nullptr) return;
  server->server->Shutdown();
  delete server;
}

}  // extern "C"
