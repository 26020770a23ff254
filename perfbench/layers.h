// Layer timing measured from outside the simulator.
//
// The traced run wraps the public API instead of instrumenting src/: a
// TimedSource decorates the TraceSource handed to SimStream::Create /
// ClusterSession::Create (prefix materialization and block decode), a
// TimedPolicy decorates every policy an engine steps (Train and each
// OnMinute), and ScopedTimer brackets the remaining calls (generation,
// transforms, packing, Create, Step, Finish and the checkpoint codec).
// Every decorator forwards verbatim, so a traced run simulates exactly
// what the untraced run does; the benchmark checks that on every counter.

#ifndef SPES_PERFBENCH_LAYERS_H_
#define SPES_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/policy_registry.h"
#include "obs/clock.h"
#include "sim/policy.h"
#include "trace/trace_source.h"

namespace perfbench {

/// \brief Wall seconds and work counts per layer for one traced run.
struct LayerTimes {
  // trace/
  double generate_s = 0.0;
  double transform_s = 0.0;
  double pack_s = 0.0;  ///< TraceFileWriter + TraceFileSource::FromBytes
  double prefix_s = 0.0;
  double decode_s = 0.0;
  uint64_t decode_calls = 0;
  uint64_t arrivals = 0;  ///< Invocation records the source produced
  // core/ + policies/
  double train_s = 0.0;
  std::vector<double> policy_steps;  ///< one entry per OnMinute call
  // sim/ + cluster/
  double create_s = 0.0;
  double step_s = 0.0;
  double finish_s = 0.0;
  double ckpt_save_s = 0.0;     ///< Checkpoint + Serialize*
  double ckpt_restore_s = 0.0;  ///< Parse* + Restore
};

/// \brief Field of `layers`, or null when the run is untraced.
inline double* Slot(LayerTimes* layers, double LayerTimes::*field) {
  return layers == nullptr ? nullptr : &(layers->*field);
}

/// \brief Adds the wall time of its scope to `*sink`; a null sink reads
/// no clock at all, so untraced runs pay nothing.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* sink)
      : sink_(sink), start_(sink == nullptr ? 0.0 : spes::MonotonicSeconds()) {}
  ~ScopedTimer() {
    if (sink_ != nullptr) *sink_ += spes::MonotonicSeconds() - start_;
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* sink_;
  double start_;
};

/// \brief Calls `fn` and returns its result, adding its wall time to
/// `layers->*field` when traced.
template <typename Fn>
auto Timed(LayerTimes* layers, double LayerTimes::*field, Fn&& fn)
    -> decltype(fn()) {
  const ScopedTimer timer(Slot(layers, field));
  return fn();
}

/// \brief Times prefix materialization and block decode of a borrowed
/// source.
class TimedSource final : public spes::TraceSource {
 public:
  TimedSource(spes::TraceSource* inner, LayerTimes* layers)
      : inner_(inner), layers_(layers) {}

  [[nodiscard]] int num_minutes() const override {
    return inner_->num_minutes();
  }
  [[nodiscard]] size_t num_functions() const override {
    return inner_->num_functions();
  }
  [[nodiscard]] const spes::FunctionMeta& function_meta(
      size_t f) const override {
    return inner_->function_meta(f);
  }

  spes::Status FillArrivals(
      int begin, int end,
      std::vector<std::vector<spes::Invocation>>* buckets) override {
    spes::Status status;
    {
      const ScopedTimer timer(&layers_->decode_s);
      status = inner_->FillArrivals(begin, end, buckets);
    }
    ++layers_->decode_calls;
    for (int i = 0; i < end - begin; ++i) {
      layers_->arrivals += (*buckets)[static_cast<size_t>(i)].size();
    }
    return status;
  }

  spes::Result<spes::Trace> MaterializePrefix(int num_minutes) override {
    const ScopedTimer timer(&layers_->prefix_s);
    return inner_->MaterializePrefix(num_minutes);
  }

 private:
  spes::TraceSource* inner_;
  LayerTimes* layers_;
};

/// \brief Times Train and every OnMinute of an owned policy; everything
/// else (name, checkpoint state) forwards untouched.
class TimedPolicy final : public spes::Policy {
 public:
  TimedPolicy(std::unique_ptr<spes::Policy> inner, LayerTimes* layers)
      : inner_(std::move(inner)), layers_(layers) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void Train(const spes::Trace& trace, int train_minutes) override {
    const ScopedTimer timer(&layers_->train_s);
    inner_->Train(trace, train_minutes);
  }

  void OnMinute(int t, const std::vector<spes::Invocation>& arrivals,
                spes::MemSet* mem) override {
    const double start = spes::MonotonicSeconds();
    inner_->OnMinute(t, arrivals, mem);
    layers_->policy_steps.push_back(spes::MonotonicSeconds() - start);
  }

  [[nodiscard]] bool RequiresFullTrace() const override {
    return inner_->RequiresFullTrace();
  }
  [[nodiscard]] bool SupportsCheckpoint() const override {
    return inner_->SupportsCheckpoint();
  }
  [[nodiscard]] spes::Result<std::string> SaveState() const override {
    return inner_->SaveState();
  }
  spes::Status RestoreState(const std::string& blob) override {
    return inner_->RestoreState(blob);
  }

 private:
  std::unique_ptr<spes::Policy> inner_;
  LayerTimes* layers_;
};

/// \brief Registers `timed_<inner>` in the global policy registry: the
/// same schema as `inner`, each instance wrapped in a TimedPolicy. This is
/// how the cluster's per-node policies, which ClusterSession builds from
/// a PolicySpec, get timed.
inline void RegisterTimedPolicy(const std::string& inner,
                                LayerTimes* layers) {
  spes::PolicyRegistry& registry = spes::PolicyRegistry::Global();
  const spes::PolicyRegistry::Entry* base = registry.Find(inner);
  if (base == nullptr) {
    spes::Status::NotFound("policy '" + inner + "'").CheckOK();
  }
  spes::PolicyRegistry::Entry entry;
  entry.canonical_name = "timed_" + inner;
  entry.summary = base->summary + " (timed by the benchmark)";
  entry.params = base->params;
  entry.factory = [factory = base->factory, layers](
                      const spes::PolicyParams& params)
      -> spes::Result<std::unique_ptr<spes::Policy>> {
    SPES_ASSIGN_OR_RETURN(std::unique_ptr<spes::Policy> policy,
                          factory(params));
    return std::unique_ptr<spes::Policy>(
        std::make_unique<TimedPolicy>(std::move(policy), layers));
  };
  registry.Register(std::move(entry)).CheckOK();
}

}  // namespace perfbench

#endif  // SPES_PERFBENCH_LAYERS_H_
