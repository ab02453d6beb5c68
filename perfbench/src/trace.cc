#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "report.h"

namespace perfbench {

Tracer::Tracer(size_t reserve_spans) : origin_ns_(NowNs()) {
  spans_.reserve(reserve_spans);
  open_.reserve(64);
}

int32_t Tracer::Begin(const char* name, const char* layer) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  // Spans close in LIFO order on the driving thread.
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::AddChild(const char* name, const char* layer, int64_t start_ns,
                      int64_t end_ns) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

void Tracer::AddRequestSpan(const char* name, int64_t request,
                            int64_t start_ns, int64_t end_ns) {
  Span span;
  span.name = name;
  span.layer = "serve";
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

std::vector<double> Tracer::SelfMs() const {
  std::vector<double> self(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.request >= 0) continue;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    self[i] += ms;
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= ms;
  }
  return self;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.request < 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::vector<double> self = SelfMs();
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].request < 0) out[spans_[i].layer] += self[i];
  }
  return out;
}

double Tracer::RootMs() const {
  double ms = 0.0;
  for (const Span& s : spans_) {
    if (s.request < 0 && s.parent < 0) {
      ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }
  }
  return ms;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  auto us = [this](int64_t ns) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(ns - origin_ns_) * 1e-3);
    return std::string(buf);
  };
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
         "\"args\": {\"name\": \"benchmark\"}}";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.request < 0) {
      out << ",\n{\"name\": \"" << s.name << "\", \"cat\": \"" << s.layer
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << us(s.start_ns) << ", \"dur\": "
          << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
          << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
          << "}}";
    } else {
      for (int edge = 0; edge < 2; ++edge) {
        out << ",\n{\"name\": \"" << s.name << "\", \"cat\": \"" << s.layer
            << "\", \"ph\": \"" << (edge == 0 ? "b" : "e")
            << "\", \"id\": " << s.request << ", \"pid\": 1, \"tid\": 2"
            << ", \"ts\": " << us(edge == 0 ? s.start_ns : s.end_ns)
            << ", \"args\": {\"request\": " << s.request << "}}";
      }
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

const char* OpLayer(dhgcn::PlanOpKind kind) {
  switch (kind) {
    case dhgcn::PlanOpKind::kVertexMix:
    case dhgcn::PlanOpKind::kDynamicVertexMix:
    case dhgcn::PlanOpKind::kJointWeightOps:
    case dhgcn::PlanOpKind::kStrideOps:
    case dhgcn::PlanOpKind::kTopologyOps:
    case dhgcn::PlanOpKind::kSpMM:
      return "core";
    default:
      return "kernels";
  }
}

// Stable "op.<PlanOpKindName>" strings for span names.
const char* OpSpanName(dhgcn::PlanOpKind kind) {
  static std::map<int, std::string> names;
  std::string& name = names[static_cast<int>(kind)];
  if (name.empty()) name = std::string("op.") + dhgcn::PlanOpKindName(kind);
  return name.c_str();
}

}  // namespace

OpClock::OpClock(Tracer* tracer, dhgcn::PlanRunner* runner)
    : tracer_(tracer), plan_(&runner->plan()) {
  runner->SetObserver([this](int64_t, const dhgcn::Tensor&) { OnSlot(); });
}

void OpClock::OnSlot() {
  const int64_t now = NowNs();
  if (calls_ > 0) {
    const dhgcn::PlanOp& op = plan_->ops[static_cast<size_t>(calls_ - 1)];
    tracer_->AddChild(OpSpanName(op.kind), OpLayer(op.kind), last_ns_, now);
  }
  ++calls_;
  last_ns_ = now;
}

void AddOpMetrics(const Tracer& tracer, RunResult* result) {
  for (const char* kind :
       {"TopologyOps", "DynamicVertexMix", "JointWeightOps", "StrideOps",
        "SpMM", "Conv2d", "Conv2dFolded", "BnAddRelu", "AddRelu",
        "Accumulate"}) {
    const std::string name = std::string("op.") + kind;
    AddDistribution(result, name + ".ms",
                    Summarize(tracer.DurationsMs(name)), "ms");
  }
}

void AddSelfTimeTable(const Tracer& tracer, RunResult* result) {
  const std::map<std::string, double> by_layer = tracer.SelfMsByLayer();
  const double root = tracer.RootMs();
  double sum = 0.0;
  char line[160];
  result->Note("self-time by layer (traced run, ms; adds up to the root):");
  for (const auto& [layer, ms] : by_layer) {
    sum += ms;
    result->Add("self." + layer + ".ms", ms, "ms");
    std::snprintf(line, sizeof(line), "  %-8s %12.3f  %5.1f%%",
                  layer.c_str(), ms, root > 0 ? 100.0 * ms / root : 0.0);
    result->Note(line);
  }
  std::snprintf(line, sizeof(line), "  %-8s %12.3f", "total", root);
  result->Note(line);
  result->Add("trace.e2e_ms", root, "ms");
  result->Add("trace.spans", static_cast<double>(tracer.spans().size()),
              "count");
  if (std::fabs(sum - root) > 1e-6 * std::max(1.0, root)) {
    result->Fail("self-times (" + std::to_string(sum) +
                 " ms) do not add up to the traced end-to-end time (" +
                 std::to_string(root) + " ms)");
  }
}

}  // namespace perfbench
