// Exercises the flat-C serving ABI end to end: open, introspect, infer,
// classified error codes, last_error, close. The C surface must match
// the C++ server bit for bit.

#include "serve/serve_c_api.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "base/rng.h"
#include "serve/server.h"

namespace dhgcn {
namespace {

constexpr int64_t kFrames = 8;

TEST(ServeCApiTest, OpenRejectsBadArgumentsWithMessage) {
  char err[256] = {0};
  dhgcn_serve_server* server = dhgcn_serve_open(
      nullptr, "nonsense", "ntu", 4, kFrames, 0, 0, 0, err, sizeof(err));
  EXPECT_EQ(server, nullptr);
  EXPECT_NE(std::string(err).find("nonsense"), std::string::npos);

  err[0] = '\0';
  server = dhgcn_serve_open(nullptr, "tiny", "klingon", 4, kFrames, 0, 0,
                            0, err, sizeof(err));
  EXPECT_EQ(server, nullptr);
  EXPECT_NE(std::string(err).find("klingon"), std::string::npos);

  // Corrupt checkpoint path: the v2 loader's Status surfaces here.
  err[0] = '\0';
  server = dhgcn_serve_open("/nonexistent/weights.ckpt", "tiny", "ntu", 4,
                            kFrames, 0, 0, 0, err, sizeof(err));
  EXPECT_EQ(server, nullptr);
  EXPECT_GT(std::string(err).size(), 0u);
}

TEST(ServeCApiTest, InferMatchesCppServer) {
  char err[256] = {0};
  dhgcn_serve_server* server = dhgcn_serve_open(
      nullptr, "tiny", "ntu", 4, kFrames, 1, 0, 0, err, sizeof(err));
  ASSERT_NE(server, nullptr) << err;

  int64_t clip_len = dhgcn_serve_clip_len(server);
  int64_t classes = dhgcn_serve_num_classes(server);
  EXPECT_EQ(classes, 4);
  ASSERT_GT(clip_len, 0);

  Rng rng(21);
  std::vector<float> clip(static_cast<size_t>(clip_len));
  for (float& v : clip) v = rng.Normal();
  std::vector<float> logits(static_cast<size_t>(classes), 0.0f);
  int rc = dhgcn_serve_infer(server, clip.data(), clip_len,
                             /*deadline_ms=*/2'000, logits.data(),
                             classes);
  ASSERT_EQ(rc, DHGCN_SERVE_OK) << dhgcn_serve_last_error(server);

  // Reference: the same config/seed through the C++ interface.
  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kNtu25, /*num_classes=*/4);
  auto reference =
      InferenceServer::Create("", config, kFrames, ServerOptions());
  ASSERT_TRUE(reference.ok());
  Tensor input({config.in_channels, kFrames,
                (*reference)->model().num_joints()});
  for (int64_t i = 0; i < input.numel(); ++i) {
    input.flat(i) = clip[static_cast<size_t>(i)];
  }
  // Same generous deadline as the C call: sanitizer builds slow the
  // forward enough to blow the server default otherwise.
  SubmitOptions reference_opts;
  reference_opts.deadline_ns = 10'000'000'000;
  ServeResponse expected = (*reference)->Infer(input, reference_opts);

  // Close before asserting so a failure can't leak the C handle.
  int health = dhgcn_serve_health_state(server);
  dhgcn_serve_close(server);
  ASSERT_TRUE(expected.status.ok()) << expected.status.ToString();
  for (int64_t c = 0; c < classes; ++c) {
    EXPECT_EQ(logits[static_cast<size_t>(c)], expected.logits.flat(c));
  }
  EXPECT_EQ(health, DHGCN_SERVE_HEALTH_READY);
}

TEST(ServeCApiTest, HugeDeadlineSaturatesInsteadOfOverflowing) {
  char err[256] = {0};
  dhgcn_serve_server* server = dhgcn_serve_open(
      nullptr, "tiny", "ntu", 4, kFrames, 1, 0, 0, err, sizeof(err));
  ASSERT_NE(server, nullptr) << err;
  int64_t clip_len = dhgcn_serve_clip_len(server);
  int64_t classes = dhgcn_serve_num_classes(server);
  std::vector<float> clip(static_cast<size_t>(clip_len), 0.5f);
  std::vector<float> logits(static_cast<size_t>(classes), 0.0f);
  int rc = dhgcn_serve_infer(server, clip.data(), clip_len,
                             std::numeric_limits<int64_t>::max(),
                             logits.data(), classes);
  std::string error = dhgcn_serve_last_error(server);
  dhgcn_serve_close(server);
  EXPECT_EQ(rc, DHGCN_SERVE_OK) << error;
}

TEST(ServeCApiTest, ClassifiesErrorsAcrossTheBoundary) {
  char err[256] = {0};
  dhgcn_serve_server* server = dhgcn_serve_open(
      nullptr, "tiny", "ntu", 4, kFrames, 1, 0, 0, err, sizeof(err));
  ASSERT_NE(server, nullptr) << err;
  int64_t clip_len = dhgcn_serve_clip_len(server);
  int64_t classes = dhgcn_serve_num_classes(server);
  std::vector<float> clip(static_cast<size_t>(clip_len), 0.5f);
  std::vector<float> logits(static_cast<size_t>(classes), 0.0f);

  // Wrong clip length.
  EXPECT_EQ(dhgcn_serve_infer(server, clip.data(), clip_len - 1, 0,
                              logits.data(), classes),
            DHGCN_SERVE_INVALID_ARGUMENT);
  EXPECT_GT(std::string(dhgcn_serve_last_error(server)).size(), 0u);

  // Undersized logits buffer.
  EXPECT_EQ(dhgcn_serve_infer(server, clip.data(), clip_len, 0,
                              logits.data(), classes - 1),
            DHGCN_SERVE_INVALID_ARGUMENT);

  // Quarantined input: NaN fails with INVALID_ARGUMENT, not a crash.
  clip[3] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(dhgcn_serve_infer(server, clip.data(), clip_len, 2'000,
                              logits.data(), classes),
            DHGCN_SERVE_INVALID_ARGUMENT);
  clip[3] = 0.5f;

  // Null handles are inert.
  EXPECT_EQ(dhgcn_serve_clip_len(nullptr), 0);
  EXPECT_EQ(dhgcn_serve_infer(nullptr, clip.data(), clip_len, 0,
                              logits.data(), classes),
            DHGCN_SERVE_INVALID_ARGUMENT);
  EXPECT_NE(dhgcn_serve_last_error(nullptr), nullptr);
  dhgcn_serve_close(nullptr);

  dhgcn_serve_close(server);
}

}  // namespace
}  // namespace dhgcn
