#include "core/spes_policy.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "common/binary_io.h"
#include "common/stats.h"
#include "core/policy_registry.h"
#include "core/validation.h"

namespace spes {

void RegisterSpesPolicy(PolicyRegistry& registry) {
  PolicyRegistry::Entry entry;
  entry.canonical_name = "spes";
  entry.summary =
      "SPES: differentiated rule-based provisioning by invocation-pattern "
      "category";
  const SpesConfig defaults;
  // One ParamSpec per SpesConfig member: the provision/ablation knobs the
  // paper sweeps (Figs. 13-15). Table I's definitional constants and the
  // other single-valued constants are named constants in core/config.h.
  entry.params = {
      {"theta_prewarm", ParamType::kInt, ParamValue(defaults.theta_prewarm),
       "pre-load window around a predicted invocation", 0, kIntParamMax},
      {"givenup_scaler", ParamType::kInt, ParamValue(defaults.givenup_scaler),
       "multiplier on every theta_givenup (the Fig. 13(b) scaler)", 1,
       kIntParamMax},
      {"theta_givenup_default", ParamType::kInt,
       ParamValue(defaults.theta_givenup_default),
       "eviction threshold for most types (idle minutes)", 0, kIntParamMax},
      {"theta_givenup_dense", ParamType::kInt,
       ParamValue(defaults.theta_givenup_dense),
       "eviction threshold for dense functions", 0, kIntParamMax},
      {"theta_givenup_pulsed", ParamType::kInt,
       ParamValue(defaults.theta_givenup_pulsed),
       "eviction threshold for pulsed functions", 0, kIntParamMax},
      // Any positive finite scaling is meaningful (the paper uses 0.5).
      {"alpha", ParamType::kDouble, ParamValue(defaults.alpha),
       "rise-rate scaling in the indeterminate assignment", 1e-9, 1e9},
      {"enable_correlated", ParamType::kBool,
       ParamValue(defaults.enable_correlated),
       "training-time correlation links (Fig. 14 'w/o Corr' when false)"},
      {"enable_online_corr", ParamType::kBool,
       ParamValue(defaults.enable_online_corr),
       "online correlation for unseen functions"},
      {"enable_forgetting", ParamType::kBool,
       ParamValue(defaults.enable_forgetting),
       "recent-suffix re-categorization of unknowns (Fig. 15)"},
      {"enable_adjusting", ParamType::kBool,
       ParamValue(defaults.enable_adjusting),
       "online drift correction and late categorization (Fig. 15)"},
  };
  entry.factory =
      [](const PolicyParams& params) -> Result<std::unique_ptr<Policy>> {
    SpesConfig config;
    config.theta_prewarm = static_cast<int>(params.GetInt("theta_prewarm"));
    config.givenup_scaler = static_cast<int>(params.GetInt("givenup_scaler"));
    config.theta_givenup_default =
        static_cast<int>(params.GetInt("theta_givenup_default"));
    config.theta_givenup_dense =
        static_cast<int>(params.GetInt("theta_givenup_dense"));
    config.theta_givenup_pulsed =
        static_cast<int>(params.GetInt("theta_givenup_pulsed"));
    config.alpha = params.GetDouble("alpha");
    config.enable_correlated = params.GetBool("enable_correlated");
    config.enable_online_corr = params.GetBool("enable_online_corr");
    config.enable_forgetting = params.GetBool("enable_forgetting");
    config.enable_adjusting = params.GetBool("enable_adjusting");
    return std::unique_ptr<Policy>(std::make_unique<SpesPolicy>(config));
  };
  registry.Register(std::move(entry)).CheckOK();
}

SpesPolicy::SpesPolicy(SpesConfig config) : config_(config) {}

int SpesPolicy::GivenUpThreshold(FunctionType type) const {
  int base = config_.theta_givenup_default;
  if (type == FunctionType::kDense) base = config_.theta_givenup_dense;
  if (type == FunctionType::kPulsed) base = config_.theta_givenup_pulsed;
  return config_.ScaledGivenUp(base);
}

bool SpesPolicy::PredictNearInvocation(const FunctionState& state,
                                       int t) const {
  const PredictiveModel& model = state.model;
  if (model.type == FunctionType::kAlwaysWarm) return true;
  if (state.last_arrival < 0) return false;
  const int theta = config_.theta_prewarm;
  if (model.type == FunctionType::kRegular && state.next_predicted >= 0) {
    // Lattice prediction (advanced in OnMinute when an event is dropped).
    return std::llabs(state.next_predicted - static_cast<int64_t>(t)) <=
           theta;
  }
  return model.PredictsNear(state.last_arrival, t, theta);
}

void SpesPolicy::Train(const Trace& trace, int train_minutes) {
  const size_t n = trace.num_functions();
  states_.assign(n, FunctionState{});
  links_by_candidate_.assign(n, {});
  online_corr_.clear();
  invoked_now_.assign(n, 0);
  forgetting_recategorized_ = 0;
  online_recategorized_ = 0;
  steps_ = 0;
  last_minute_ = kNoMinute;
  rebuild_ = true;

  const int validation_begin =
      std::max(0, train_minutes - kValidationMinutes);

  // --- Pass 1: features + deterministic categorization. --------------------
  std::vector<std::vector<int64_t>> training_wts(n);
  std::vector<size_t> indeterminate;
  for (size_t f = 0; f < n; ++f) {
    const auto counts = trace.Slice(f, 0, train_minutes);
    const SeriesFeatures features = ExtractSeriesFeatures(counts);
    FunctionState& st = states_[f];
    st.seen_in_training = features.total_invocations > 0;
    if (features.last_invoked >= 0) {
      st.last_arrival = static_cast<int>(features.last_invoked);
      st.idle_origin = -(train_minutes - 1 - st.last_arrival);
    }
    training_wts[f] = features.wts;
    if (!st.seen_in_training) continue;  // unseen: handled by online corr

    st.model = CategorizeDeterministic(counts);
    if (st.model.type == FunctionType::kUnknown && config_.enable_forgetting) {
      PredictiveModel recovered = CategorizeWithForgetting(counts);
      if (recovered.type != FunctionType::kUnknown) {
        st.model = recovered;
        ++forgetting_recategorized_;
      }
    }
    // Near-empty histories (a couple of invoked minutes) carry no signal
    // for the supplementary strategies either: leave them unknown.
    if (st.model.type == FunctionType::kUnknown &&
        features.active_slots >= kIndeterminateMinInvokedMinutes) {
      indeterminate.push_back(f);
    }
  }

  // --- Pass 2: indeterminate assignment by validation replay. --------------
  const auto by_app = trace.GroupByApp();
  const auto by_owner = trace.GroupByOwner();
  for (size_t f : indeterminate) {
    FunctionState& st = states_[f];
    const auto validation = trace.Slice(f, validation_begin, train_minutes);

    // Candidate functions: share the application or owner (§IV-B D2).
    std::vector<CorrelationLink> links;
    if (config_.enable_correlated) {
      const auto target_slice = trace.Slice(f, 0, train_minutes);
      const std::vector<int> target_slots = InvokedSlots(target_slice);
      if (static_cast<int>(target_slots.size()) >= kTcorMinTargetArrivals) {
        std::vector<size_t> candidates;
        auto app_it = by_app.find(trace.function(f).meta.app);
        if (app_it != by_app.end()) {
          candidates.insert(candidates.end(), app_it->second.begin(),
                            app_it->second.end());
        }
        auto owner_it = by_owner.find(trace.function(f).meta.owner);
        if (owner_it != by_owner.end()) {
          candidates.insert(candidates.end(), owner_it->second.begin(),
                            owner_it->second.end());
        }
        std::sort(candidates.begin(), candidates.end());
        candidates.erase(std::unique(candidates.begin(), candidates.end()),
                         candidates.end());
        for (size_t c : candidates) {
          if (c == f || !states_[c].seen_in_training) continue;
          const auto candidate_slice = trace.Slice(c, 0, train_minutes);
          const BestLag best = BestLaggedCorFromSlots(
              target_slots, candidate_slice, kTcorMaxLag);
          if (best.cor < kTcorThreshold) continue;
          // Precision check: how often does a candidate firing actually
          // precede a target invocation? (Guards against hyperactive
          // candidates that would pre-warm the target non-stop.)
          int64_t cand_fires = 0, followed = 0;
          for (size_t s = 0; s < candidate_slice.size(); ++s) {
            if (candidate_slice[s] == 0) continue;
            ++cand_fires;
            const size_t lo = s + static_cast<size_t>(std::max(
                                      0, best.lag - config_.theta_prewarm));
            const size_t hi =
                s + static_cast<size_t>(int64_t{best.lag} +
                                        config_.theta_prewarm);
            for (size_t u = lo; u <= hi && u < target_slice.size(); ++u) {
              if (target_slice[u] > 0) {
                ++followed;
                break;
              }
            }
          }
          const double precision =
              cand_fires == 0 ? 0.0
                              : static_cast<double>(followed) /
                                    static_cast<double>(cand_fires);
          if (precision < kTcorMinPrecision) continue;
          links.push_back({static_cast<uint32_t>(f),
                           static_cast<uint32_t>(c), best.lag, best.cor});
        }
      }
    }

    // D1: pulsed replay.
    const StrategyCost pulsed =
        ReplayPulsed(validation, GivenUpThreshold(FunctionType::kPulsed));
    // D2: correlated replay over the validation slices of linked functions.
    std::vector<std::span<const uint32_t>> cand_validation;
    std::vector<int> lags;
    for (const CorrelationLink& link : links) {
      cand_validation.push_back(
          trace.Slice(link.candidate, validation_begin, train_minutes));
      lags.push_back(link.lag);
    }
    const StrategyCost correlated =
        ReplayCorrelated(validation, cand_validation, lags,
                         kCorrPrewarmHold, config_.theta_prewarm);
    // D3: possible replay from repeated training WTs.
    const PredictiveModel possible_model = FitPossibleModel(training_wts[f]);
    const StrategyCost possible =
        ReplayPossible(validation, possible_model, config_);

    const AssignmentDecision decision =
        ChooseAssignment(pulsed, correlated, possible, config_.alpha);
    switch (decision.type) {
      case FunctionType::kPulsed:
        st.model = PredictiveModel{};
        st.model.type = FunctionType::kPulsed;
        st.model.offline_wt_stddev = StdDev(training_wts[f]);
        break;
      case FunctionType::kCorrelated:
        st.model = PredictiveModel{};
        st.model.type = FunctionType::kCorrelated;
        for (const CorrelationLink& link : links) {
          links_by_candidate_[link.candidate].push_back(link);
        }
        break;
      case FunctionType::kPossible:
        st.model = possible_model;
        break;
      default:
        break;  // stays kUnknown: cold starts tolerated
    }
  }

  // Seed lattice predictions so regular functions are covered from the
  // first simulated minute.
  for (FunctionState& st : states_) {
    if (st.model.type == FunctionType::kRegular && !st.model.values.empty() &&
        st.model.values[0] > 0 && st.last_arrival >= 0) {
      st.next_predicted = st.last_arrival + st.model.values[0];
    }
  }

  // --- Pass 3: online-correlation setup for unseen functions (§IV-C2). -----
  if (config_.enable_online_corr) {
    for (size_t f = 0; f < n; ++f) {
      if (states_[f].seen_in_training) {
        continue;
      }
      OnlineCorrState corr;
      corr.target = static_cast<uint32_t>(f);
      const TriggerType trigger = trace.function(f).meta.trigger;
      // Prefer same-app, then same-owner, then any same-trigger function.
      auto consider = [&](size_t c) {
        if (c == f || !states_[c].seen_in_training) return;
        if (trace.function(c).meta.trigger != trigger) return;
        if (static_cast<int>(corr.candidates.size()) >=
            kOnlineCorrMaxCandidates) {
          return;
        }
        const uint32_t cand = static_cast<uint32_t>(c);
        if (std::find(corr.candidates.begin(), corr.candidates.end(), cand) ==
            corr.candidates.end()) {
          corr.candidates.push_back(cand);
        }
      };
      auto app_it = by_app.find(trace.function(f).meta.app);
      if (app_it != by_app.end()) {
        for (size_t c : app_it->second) consider(c);
      }
      auto owner_it = by_owner.find(trace.function(f).meta.owner);
      if (owner_it != by_owner.end()) {
        for (size_t c : owner_it->second) consider(c);
      }
      for (size_t c = 0;
           c < n && static_cast<int>(corr.candidates.size()) <
                        kOnlineCorrMaxCandidates;
           ++c) {
        consider(c);
      }
      if (!corr.candidates.empty()) {
        corr.active.assign(corr.candidates.size(), 1);
        corr.co_count.assign(corr.candidates.size(), 0);
        online_corr_.push_back(std::move(corr));
      }
    }
  }
}

void SpesPolicy::MaybeAdjustPredictiveValues(FunctionState* state) {
  if (!config_.enable_adjusting) return;
  PredictiveModel& model = state->model;
  const int samples = static_cast<int>(state->online_wts.size());
  // S1: only act with enough fresh WTs since the last adjustment.
  if (samples < kAdjustMinSamples ||
      samples - state->adjust_cursor < kAdjustMinSamples) {
    return;
  }
  state->adjust_cursor = samples;
  const double gate = std::max(model.offline_wt_stddev, 1.0);

  switch (model.type) {
    case FunctionType::kRegular: {
      // S2: replace the median predictive value by the old/new mean when
      // the online median drifts beyond the offline dispersion.
      const double online_median = state->wt_counts.Median();
      if (!model.values.empty() &&
          std::abs(online_median - static_cast<double>(model.values[0])) >
              gate) {
        model.values[0] = static_cast<int64_t>(
            (static_cast<double>(model.values[0]) + online_median) / 2.0 +
            0.5);
      }
      return;
    }
    case FunctionType::kApproRegular: {
      // Pair each predictive value with its NEAREST online mode (the rank
      // order of tightly clustered quasi-period modes is unstable between
      // the offline and online windows) and average only on genuine drift.
      const std::vector<ModeEntry> online_modes =
          state->wt_counts.TopModes(kApproNumModes);
      if (online_modes.empty()) return;
      for (int64_t& value : model.values) {
        int64_t nearest = online_modes.front().value;
        for (const ModeEntry& m : online_modes) {
          if (std::llabs(m.value - value) < std::llabs(nearest - value)) {
            nearest = m.value;
          }
        }
        if (std::abs(static_cast<double>(nearest) -
                     static_cast<double>(value)) > gate) {
          value = (value + nearest) / 2;
        }
      }
      return;
    }
    case FunctionType::kDense: {
      const std::vector<ModeEntry> online_modes =
          state->wt_counts.TopModes(kDenseNumModes);
      if (online_modes.empty()) return;
      int64_t lo = online_modes.front().value, hi = lo;
      for (const ModeEntry& m : online_modes) {
        lo = std::min(lo, m.value);
        hi = std::max(hi, m.value);
      }
      const double old_mid =
          static_cast<double>(model.range_lo + model.range_hi) / 2.0;
      const double new_mid = static_cast<double>(lo + hi) / 2.0;
      if (std::abs(new_mid - old_mid) > gate) {
        model.range_lo = (model.range_lo + lo) / 2;
        model.range_hi = (model.range_hi + hi + 1) / 2;
      }
      return;
    }
    case FunctionType::kPossible:
    case FunctionType::kNewlyPossible: {
      // Merge newly repeated online WTs into the predictive set.
      for (const ModeEntry& m : state->wt_counts.Repeated()) {
        if (static_cast<int>(model.values.size()) >=
            kPossibleMaxValues) {
          break;
        }
        if (std::find(model.values.begin(), model.values.end(), m.value) ==
            model.values.end()) {
          model.values.push_back(m.value);
        }
      }
      return;
    }
    default:
      return;
  }
}

void SpesPolicy::MaybeLateCategorize(FunctionState* state) {
  if (!config_.enable_adjusting) return;
  if (state->model.type != FunctionType::kUnknown) return;
  if (static_cast<int>(state->online_wts.size()) <
      kNewlyPossibleMinWts) {
    return;
  }
  // S3: an unknown/unseen function whose online WTs develop repeated modes
  // becomes "newly possible" and gains predictive values.
  PredictiveModel fitted = FitPossibleModel(state->online_wts);
  if (fitted.type == FunctionType::kPossible) {
    fitted.type = FunctionType::kNewlyPossible;
    state->model = fitted;
    ++online_recategorized_;
  }
}

int64_t SpesPolicy::AdvancedPrediction(const FunctionState& state,
                                       int t) const {
  const PredictiveModel& model = state.model;
  if (model.type != FunctionType::kRegular || model.values.empty() ||
      model.values[0] <= 0 || state.last_arrival < 0) {
    return state.next_predicted;
  }
  // A prediction that passed without an arrival was a dropped event: keep
  // the phase and predict whole periods later, the first one whose window
  // has not closed by `t`.
  const int64_t period = model.values[0];
  int64_t predicted = state.next_predicted >= 0
                          ? state.next_predicted
                          : state.last_arrival + period;
  const int64_t behind = static_cast<int64_t>(t) - config_.theta_prewarm -
                         predicted;
  if (behind > 0) predicted += (behind + period - 1) / period * period;
  return predicted;
}

void SpesPolicy::StartMinute(int t, const std::vector<Invocation>& arrivals,
                             MemSet* mem) {
  ++steps_;
  last_minute_ = t;
  for (const Invocation& inv : arrivals) {
    const size_t f = inv.function;
    invoked_now_[f] = 1;
    FunctionState& st = states_[f];
    if (st.last_arrival >= 0) {
      const int64_t completed_wt = steps_ - 1 - st.idle_origin;
      if (completed_wt > 0) {
        st.online_wts.push_back(completed_wt);  // a completed WT (S1)
        st.wt_counts.Add(completed_wt);
        MaybeAdjustPredictiveValues(&st);
        MaybeLateCategorize(&st);
      }
    }
    st.last_arrival = t;
    st.idle_origin = steps_;
    if (st.model.type == FunctionType::kRegular && !st.model.values.empty() &&
        st.model.values[0] > 0) {
      st.next_predicted = t + st.model.values[0];
    }
    // Correlated pre-warm: this arrival predicts linked targets at t + lag;
    // load them now (lag <= theta_max) and hold through the window.
    for (const CorrelationLink& link : links_by_candidate_[f]) {
      mem->Add(link.target);
      const int64_t hold = int64_t{t} + link.lag + config_.theta_prewarm;
      int& until = states_[link.target].corr_hold_until;
      until = std::max(until, static_cast<int>(std::min<int64_t>(
                                  hold, std::numeric_limits<int>::max())));
    }
  }
}

void SpesPolicy::EndMinute(const std::vector<Invocation>& arrivals) {
  for (const Invocation& inv : arrivals) invoked_now_[inv.function] = 0;
}

void SpesPolicy::RebuildEventState(int t) {
  const size_t n = states_.size();
  wheel_.assign(kWheelSlots, {});
  next_event_.assign(n, kNoMinute);
  window_.clear();
  in_window_.assign(n, 0);
  cursor_ = t;
  // The first step evaluates every function, exactly as the scan does.
  due_.resize(n);
  for (size_t f = 0; f < n; ++f) due_[f] = static_cast<uint32_t>(f);

  tracker_of_target_.assign(n, -1);
  granted_minute_.assign(online_corr_.size(), kNoMinute);
  tracked_offsets_.assign(n + 1, 0);
  for (const OnlineCorrState& corr : online_corr_) {
    for (const uint32_t c : corr.candidates) ++tracked_offsets_[c + 1];
  }
  for (size_t c = 0; c < n; ++c) tracked_offsets_[c + 1] += tracked_offsets_[c];
  tracked_by_.resize(tracked_offsets_[n]);
  std::vector<uint32_t> fill(tracked_offsets_.begin(),
                             tracked_offsets_.end() - 1);
  for (size_t e = 0; e < online_corr_.size(); ++e) {
    const OnlineCorrState& corr = online_corr_[e];
    tracker_of_target_[corr.target] = static_cast<int32_t>(e);
    for (size_t k = 0; k < corr.candidates.size(); ++k) {
      tracked_by_[fill[corr.candidates[k]]++] = {static_cast<uint32_t>(e),
                                                static_cast<uint32_t>(k)};
    }
  }
  rebuild_ = false;
}

void SpesPolicy::Schedule(uint32_t f, int64_t minute) {
  const int at = static_cast<int>(
      std::min<int64_t>(minute, int64_t{cursor_} + kWheelSlots - 1));
  if (next_event_[f] == at) return;
  next_event_[f] = at;
  wheel_[static_cast<size_t>(at) & (kWheelSlots - 1)].push_back(f);
}

void SpesPolicy::EnterWindow(uint32_t f) {
  if (in_window_[f]) return;
  in_window_[f] = 1;
  window_.push_back(f);
}

bool SpesPolicy::Evaluate(uint32_t f, int t, MemSet* mem) {
  FunctionState& st = states_[f];
  if (t <= st.corr_hold_until) {
    mem->Add(f);
    return true;
  }
  st.next_predicted = AdvancedPrediction(st, t);
  if (PredictNearInvocation(st, t)) {
    mem->Add(f);
    return true;
  }
  // Outside every window: the next minute a window can open. The hold
  // only moves on a grant, which puts the function on the window list.
  constexpr int64_t kNever = std::numeric_limits<int64_t>::max();
  int64_t next = kNever;
  const PredictiveModel& model = st.model;
  const int theta = config_.theta_prewarm;
  if (st.last_arrival >= 0) {
    if (model.type == FunctionType::kRegular && st.next_predicted >= 0) {
      if (st.next_predicted - theta > t) next = st.next_predicted - theta;
    } else if (model.continuous) {
      const int64_t opens = st.last_arrival + model.range_lo - theta;
      if (opens > t) next = opens;
    } else {
      for (const int64_t v : model.values) {
        const int64_t opens = st.last_arrival + v - theta;
        if (opens > t) next = std::min(next, opens);
      }
    }
  }
  // Give up (Algorithm 1 lines 17-19). Only a resident function needs a
  // give-up deadline: it becomes resident again only by an arrival or a
  // grant, and both reschedule it.
  if (mem->Contains(f)) {
    if (st.last_arrival < 0) {
      // Pre-warmed by correlation but never invoked: drop once the hold
      // expires.
      mem->Remove(f);
    } else {
      const int64_t wt = CurrentWt(st);
      const int threshold = GivenUpThreshold(model.type);
      if (wt >= threshold) {
        mem->Remove(f);
      } else {
        // The WT grows by at most one per minute.
        next = std::min(next, t + (threshold - wt));
      }
    }
  }
  if (next != kNever) Schedule(f, next);
  return false;
}

void SpesPolicy::OnTrackedTargetFired(OnlineCorrState* corr, int t) {
  ++corr->target_arrivals;
  corr->grants_since_arrival = 0;
  for (size_t k = 0; k < corr->candidates.size(); ++k) {
    const FunctionState& cand = states_[corr->candidates[k]];
    if (cand.last_arrival >= 0 &&
        t - cand.last_arrival <= kTcorMaxLag) {
      ++corr->co_count[k];
    }
  }
  KeepOrExpel(corr);
}

void SpesPolicy::KeepOrExpel(OnlineCorrState* corr) {
  // Keep/expel candidates relative to the running maximum (§IV-C2): a
  // candidate far below the best is dropped, and readmitted if its COR
  // climbs back near the maximum. The pass is idempotent and the CORs
  // only move when the target fires, so it runs only then.
  if (corr->target_arrivals < 3) return;
  const double arrivals = static_cast<double>(corr->target_arrivals);
  double max_cor = 0.0;
  for (const int32_t co : corr->co_count) {
    max_cor = std::max(max_cor, static_cast<double>(co) / arrivals);
  }
  for (size_t k = 0; k < corr->candidates.size(); ++k) {
    const double cor = static_cast<double>(corr->co_count[k]) / arrivals;
    if (max_cor - cor > kOnlineCorrDropGap) {
      corr->active[k] = 0;
    } else if (max_cor - cor < kOnlineCorrDropGap / 3.0) {
      corr->active[k] = 1;
    }
  }
}

void SpesPolicy::GrantTracked(OnlineCorrState* corr, int t, MemSet* mem) {
  // Pre-warm the target whenever an active candidate fires (the paper's
  // aggressive initial phase; candidates are pruned by COR over time).
  FunctionState& target_state = states_[corr->target];
  mem->Add(corr->target);
  const int new_hold = t + kCorrPrewarmHold;
  if (new_hold > target_state.corr_hold_until) {
    target_state.corr_hold_until = new_hold;
    ++corr->grants_since_arrival;
  }
  EnterWindow(corr->target);
}

void SpesPolicy::OnMinute(int t, const std::vector<Invocation>& arrivals,
                          MemSet* mem) {
  const bool first_step = rebuild_;
  if (first_step) {
    RebuildEventState(t);
  } else {
    // Collect the functions due in (cursor_, t]; every queued minute is
    // below cursor_ + kWheelSlots, so one lap of the wheel covers a skip.
    due_.clear();
    const int last = static_cast<int>(
        std::min<int64_t>(t, int64_t{cursor_} + kWheelSlots - 1));
    for (int m = cursor_ + 1; m <= last; ++m) {
      std::vector<uint32_t>& bucket =
          wheel_[static_cast<size_t>(m) & (kWheelSlots - 1)];
      for (const uint32_t f : bucket) {
        if (next_event_[f] != m) continue;  // rescheduled since
        next_event_[f] = kNoMinute;
        due_.push_back(f);
      }
      bucket.clear();
    }
    cursor_ = t;
  }

  // --- Arrival handling (Algorithm 1 lines 3-12). ---------------------------
  StartMinute(t, arrivals, mem);
  for (const Invocation& inv : arrivals) {
    // A window function is evaluated next minute anyway.
    if (!in_window_[inv.function]) Schedule(inv.function, int64_t{t} + 1);
    for (const CorrelationLink& link : links_by_candidate_[inv.function]) {
      EnterWindow(link.target);
    }
  }

  // --- Adaptive handling of unseen functions (§IV-C2). ---------------------
  // Within a tracker the target's update precedes its grants, as in the
  // scan; trackers are independent (one per target), so doing every
  // update before any grant keeps each tracker's order.
  if (!online_corr_.empty()) {
    if (first_step) {
      // A restored blob need not have had the pass applied; the scan
      // applies it to every tracker each minute, so apply it once here to
      // the trackers whose target stays quiet this minute.
      for (OnlineCorrState& corr : online_corr_) {
        if (!invoked_now_[corr.target]) KeepOrExpel(&corr);
      }
    }
    for (const Invocation& inv : arrivals) {
      const int32_t e = tracker_of_target_[inv.function];
      if (e >= 0) OnTrackedTargetFired(&online_corr_[static_cast<size_t>(e)], t);
    }
    // A second grant to a tracker in the same minute would find the hold
    // already extended: skip it.
    for (const Invocation& inv : arrivals) {
      const uint32_t c = inv.function;
      for (uint32_t i = tracked_offsets_[c]; i < tracked_offsets_[c + 1]; ++i) {
        const auto [e, k] = tracked_by_[i];
        if (granted_minute_[e] == t || !online_corr_[e].active[k]) continue;
        granted_minute_[e] = t;
        GrantTracked(&online_corr_[e], t, mem);
      }
    }
  }

  // --- Idle handling: pre-load or give up (Algorithm 1 lines 13-20). -------
  // Window functions are re-added every minute: capacity eviction on a
  // cluster node may have dropped them since.
  size_t kept = 0;
  for (const uint32_t f : window_) {
    if (invoked_now_[f] || Evaluate(f, t, mem)) {
      window_[kept++] = f;
    } else {
      in_window_[f] = 0;
    }
  }
  window_.resize(kept);
  for (const uint32_t f : due_) {
    if (invoked_now_[f] || in_window_[f]) continue;
    if (Evaluate(f, t, mem)) EnterWindow(f);
  }
  EndMinute(arrivals);
}

Result<std::string> SpesPolicy::SaveState() const {
  BinaryWriter w;
  w.PutU64(states_.size());
  for (const FunctionState& st : states_) {
    // The WT and the lattice prediction are stored as the per-minute scan
    // would have left them after the last step.
    const int64_t next_predicted =
        last_minute_ == kNoMinute ? st.next_predicted
                                  : AdvancedPrediction(st, last_minute_);
    w.PutU8(static_cast<uint8_t>(st.model.type));
    w.PutVector(st.model.values);
    w.PutI64(st.model.range_lo);
    w.PutI64(st.model.range_hi);
    w.PutBool(st.model.continuous);
    w.PutDouble(st.model.offline_wt_stddev);
    w.PutI32(st.model.forgotten_prefix_minutes);
    w.PutI32(st.last_arrival);
    w.PutI32(static_cast<int32_t>(CurrentWt(st)));
    w.PutBool(st.seen_in_training);
    w.PutI32(st.corr_hold_until);
    w.PutI64(next_predicted);
    w.PutVector(st.online_wts);
    w.PutI32(st.adjust_cursor);
  }
  w.PutU64(links_by_candidate_.size());
  for (const std::vector<CorrelationLink>& links : links_by_candidate_) {
    w.PutU64(links.size());
    for (const CorrelationLink& link : links) {
      w.PutU32(link.target);
      w.PutU32(link.candidate);
      w.PutI32(link.lag);
      w.PutDouble(link.cor);
    }
  }
  w.PutU64(online_corr_.size());
  for (const OnlineCorrState& corr : online_corr_) {
    w.PutU32(corr.target);
    w.PutVector(corr.candidates);
    w.PutArray(corr.active);
    w.PutArray(corr.co_count);
    w.PutI32(corr.target_arrivals);
    w.PutI32(corr.grants_since_arrival);
  }
  w.PutI64(forgetting_recategorized_);
  w.PutI64(online_recategorized_);
  return w.Take();
}

Status SpesPolicy::RestoreState(const std::string& blob) {
  // Parse into temporaries and commit only at the end, so a truncated or
  // corrupt blob leaves the policy untouched.
  BinaryReader r(blob);
  // Minimal encoded FunctionState: 71 bytes (all scalars + two empty
  // vectors) — keeps a corrupt count from driving a huge reserve().
  SPES_ASSIGN_OR_RETURN(const uint64_t n, r.Length(71));
  // The blob must describe the fleet this policy was trained on: every
  // OnMinute path indexes states_/invoked_now_ by function id, so a
  // size mismatch (or any out-of-range id below) would be heap OOB.
  if (n != states_.size()) {
    return Status::InvalidArgument(
        "spes state blob describes (=" + std::to_string(n) +
        ") functions but this policy was trained on (=" +
        std::to_string(states_.size()) + ")");
  }
  std::vector<FunctionState> states;
  states.reserve(n);
  for (uint64_t f = 0; f < n; ++f) {
    FunctionState st;
    SPES_ASSIGN_OR_RETURN(const uint8_t type, r.U8());
    if (type >= kNumFunctionTypes) {
      return Status::InvalidArgument(
          "spes state blob holds function type (=" + std::to_string(type) +
          "), valid types are [0, " + std::to_string(kNumFunctionTypes) +
          ")");
    }
    st.model.type = static_cast<FunctionType>(type);
    SPES_ASSIGN_OR_RETURN(st.model.values, r.Vector<int64_t>());
    SPES_ASSIGN_OR_RETURN(st.model.range_lo, r.I64());
    SPES_ASSIGN_OR_RETURN(st.model.range_hi, r.I64());
    SPES_ASSIGN_OR_RETURN(st.model.continuous, r.Bool());
    SPES_ASSIGN_OR_RETURN(st.model.offline_wt_stddev, r.Double());
    SPES_ASSIGN_OR_RETURN(st.model.forgotten_prefix_minutes, r.I32());
    SPES_ASSIGN_OR_RETURN(st.last_arrival, r.I32());
    SPES_ASSIGN_OR_RETURN(const int32_t current_wt, r.I32());
    st.idle_origin = -int64_t{current_wt};  // the step clock restarts at 0
    SPES_ASSIGN_OR_RETURN(st.seen_in_training, r.Bool());
    SPES_ASSIGN_OR_RETURN(st.corr_hold_until, r.I32());
    SPES_ASSIGN_OR_RETURN(st.next_predicted, r.I64());
    SPES_ASSIGN_OR_RETURN(st.online_wts, r.Vector<int64_t>());
    st.wt_counts = ValueCounts::FromValues(st.online_wts);
    SPES_ASSIGN_OR_RETURN(st.adjust_cursor, r.I32());
    states.push_back(std::move(st));
  }
  SPES_ASSIGN_OR_RETURN(const uint64_t num_candidates, r.Length(8));
  if (num_candidates != n) {
    return Status::InvalidArgument(
        "spes state blob has (=" + std::to_string(num_candidates) +
        ") link lists for (=" + std::to_string(n) + ") functions");
  }
  std::vector<std::vector<CorrelationLink>> links_by_candidate(num_candidates);
  for (uint64_t c = 0; c < num_candidates; ++c) {
    SPES_ASSIGN_OR_RETURN(const uint64_t num_links, r.Length(20));
    links_by_candidate[c].reserve(num_links);
    for (uint64_t k = 0; k < num_links; ++k) {
      CorrelationLink link;
      SPES_ASSIGN_OR_RETURN(link.target, r.U32());
      SPES_ASSIGN_OR_RETURN(link.candidate, r.U32());
      SPES_ASSIGN_OR_RETURN(link.lag, r.I32());
      SPES_ASSIGN_OR_RETURN(link.cor, r.Double());
      if (link.target >= n || link.candidate >= n) {
        return Status::InvalidArgument(
            "spes state blob holds correlation link with function id (=" +
            std::to_string(std::max(link.target, link.candidate)) +
            ") outside the fleet (=" + std::to_string(n) + " functions)");
      }
      links_by_candidate[c].push_back(link);
    }
  }
  // Minimal encoded OnlineCorrState: 20 bytes (target + empty candidate
  // list + the two counters).
  SPES_ASSIGN_OR_RETURN(const uint64_t num_corr, r.Length(20));
  std::vector<OnlineCorrState> online_corr;
  online_corr.reserve(num_corr);
  std::vector<uint8_t> tracked(n, 0);
  for (uint64_t i = 0; i < num_corr; ++i) {
    OnlineCorrState corr;
    SPES_ASSIGN_OR_RETURN(corr.target, r.U32());
    if (corr.target >= n) {
      return Status::InvalidArgument(
          "spes state blob holds online-correlation target (=" +
          std::to_string(corr.target) + ") outside the fleet (=" +
          std::to_string(n) + " functions)");
    }
    // Training tracks each unseen function once; the target index relies
    // on it.
    if (tracked[corr.target]) {
      return Status::InvalidArgument(
          "spes state blob tracks online-correlation target (=" +
          std::to_string(corr.target) + ") twice");
    }
    tracked[corr.target] = 1;
    // Each candidate takes 9 bytes: its id, its active flag and its
    // co-arrival count, stored as three parallel arrays.
    SPES_ASSIGN_OR_RETURN(const uint64_t num_cand, r.Length(9));
    SPES_ASSIGN_OR_RETURN(corr.candidates, r.Array<uint32_t>(num_cand));
    for (const uint32_t c : corr.candidates) {
      if (c >= n) {
        return Status::InvalidArgument(
            "spes state blob holds online-correlation candidate (=" +
            std::to_string(c) + ") outside the fleet (=" +
            std::to_string(n) + " functions)");
      }
    }
    SPES_ASSIGN_OR_RETURN(corr.active, r.Array<uint8_t>(num_cand));
    SPES_ASSIGN_OR_RETURN(corr.co_count, r.Array<int32_t>(num_cand));
    SPES_ASSIGN_OR_RETURN(corr.target_arrivals, r.I32());
    SPES_ASSIGN_OR_RETURN(corr.grants_since_arrival, r.I32());
    online_corr.push_back(std::move(corr));
  }
  int64_t forgetting = 0, online = 0;
  SPES_ASSIGN_OR_RETURN(forgetting, r.I64());
  SPES_ASSIGN_OR_RETURN(online, r.I64());
  if (!r.AtEnd()) {
    return Status::InvalidArgument("spes state blob has trailing bytes");
  }

  states_ = std::move(states);
  links_by_candidate_ = std::move(links_by_candidate);
  online_corr_ = std::move(online_corr);
  invoked_now_.assign(states_.size(), 0);
  forgetting_recategorized_ = forgetting;
  online_recategorized_ = online;
  steps_ = 0;
  last_minute_ = kNoMinute;
  rebuild_ = true;
  return Status::OK();
}

std::array<int64_t, kNumFunctionTypes> SpesPolicy::CountByType() const {
  std::array<int64_t, kNumFunctionTypes> counts{};
  for (const FunctionState& st : states_) {
    ++counts[static_cast<size_t>(st.model.type)];
  }
  return counts;
}

}  // namespace spes
