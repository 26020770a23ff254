#include "trace/generator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

namespace spes {

namespace {

/// sin(2π·m/1440) for every minute of the day m. Filled once, at run time,
/// by libm, so every entry has the bits a per-minute std::sin call gives.
const std::array<double, kMinutesPerDay>& DaySines() {
  static const std::array<double, kMinutesPerDay> table = [] {
    std::array<double, kMinutesPerDay> sines{};
    for (int m = 0; m < kMinutesPerDay; ++m) {
      sines[static_cast<size_t>(m)] =
          std::sin(2.0 * M_PI * static_cast<double>(m) /
                   static_cast<double>(kMinutesPerDay));
    }
    return sines;
  }();
  return table;
}

/// Diurnal load modulation: a day-periodic sinusoid in [1-amp, 1+amp],
/// emulating the day/night cycle of human-generated (HTTP) traffic.
double Diurnal(int minute, double amplitude) {
  return 1.0 + amplitude * DaySines()[static_cast<size_t>(
                               minute % kMinutesPerDay)];
}

std::string HashName(const char* prefix, uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%016llx", prefix,
                static_cast<unsigned long long>(SplitMix64(&value)));
  return buf;
}

}  // namespace

const char* PatternKindToString(PatternKind kind) {
  switch (kind) {
    case PatternKind::kAlwaysWarm:
      return "always-warm";
    case PatternKind::kRegularTimer:
      return "regular-timer";
    case PatternKind::kApproRegular:
      return "appro-regular";
    case PatternKind::kDensePoisson:
      return "dense-poisson";
    case PatternKind::kSuccessiveBurst:
      return "successive-burst";
    case PatternKind::kPulsedBurst:
      return "pulsed-burst";
    case PatternKind::kRarePossible:
      return "rare-possible";
    case PatternKind::kRareRandom:
      return "rare-random";
    case PatternKind::kChainFollower:
      return "chain-follower";
    case PatternKind::kUnseen:
      return "unseen";
  }
  return "?";
}

void SynthAlwaysWarm(Rng* rng, std::vector<uint32_t>* counts, int begin) {
  static const double kLimit = Rng::PoissonLimit(3.0);
  for (size_t t = static_cast<size_t>(begin); t < counts->size(); ++t) {
    // At least one invocation virtually every slot; the stray zero slot
    // exercises the paper's "sum of inter-invocation time <= horizon/1000"
    // branch of the always-warm definition.
    if (rng->Bernoulli(0.0005)) {
      (*counts)[t] = 0;
    } else {
      (*counts)[t] = 1 + static_cast<uint32_t>(rng->PoissonBelow(kLimit));
    }
  }
}

void SynthRegular(Rng* rng, int period, std::vector<uint32_t>* counts,
                  int begin) {
  if (period < 2) period = 2;
  static const double kLimit = Rng::PoissonLimit(0.3);
  int t = begin + static_cast<int>(rng->UniformInt(0, period - 1));
  const int horizon = static_cast<int>(counts->size());
  while (t < horizon) {
    int fire_at = t;
    // Rare one-slot delivery delay (concurrency limits, network blips).
    if (rng->Bernoulli(0.02)) fire_at += 1;
    // Rare dropped event.
    if (!rng->Bernoulli(0.01) && fire_at < horizon) {
      (*counts)[static_cast<size_t>(fire_at)] +=
          1 + static_cast<uint32_t>(rng->PoissonBelow(kLimit));
    }
    t += period;
  }
}

void SynthApproRegular(Rng* rng, int period, std::vector<uint32_t>* counts,
                       int begin) {
  if (period < 3) period = 3;
  const int horizon = static_cast<int>(counts->size());
  int t = begin + static_cast<int>(rng->UniformInt(0, period - 1));
  // Gaps cycle through a small mode set around the nominal period, e.g. an
  // IoT feed nominally every `period` minutes but effectively period +/- 1.
  const std::vector<double> weights = {0.25, 0.5, 0.25};
  while (t < horizon) {
    (*counts)[static_cast<size_t>(t)] += 1;
    const int delta = static_cast<int>(rng->WeightedIndex(weights)) - 1;
    t += period + delta;
  }
}

void SynthDensePoisson(Rng* rng, double rate_per_minute,
                       std::vector<uint32_t>* counts, int begin) {
  if (rate_per_minute <= 0.0) rate_per_minute = 0.5;
  const int horizon = static_cast<int>(counts->size());
  if (begin < 0 || begin >= horizon) return;
  // The mean depends only on the minute of the day, so Knuth's limit is
  // computed once per minute of day the span covers, not once per minute.
  // Means outside Knuth's range keep Rng::Poisson.
  std::array<double, kMinutesPerDay> means{}, limits{};
  const int first = begin % kMinutesPerDay;
  const int covered = std::min(horizon - begin, kMinutesPerDay);
  for (int i = 0, m = first; i < covered; ++i) {
    const double mean = rate_per_minute * Diurnal(m, 0.45);
    means[static_cast<size_t>(m)] = mean;
    if (Rng::UsesKnuth(mean)) {
      limits[static_cast<size_t>(m)] = Rng::PoissonLimit(mean);
    }
    if (++m == kMinutesPerDay) m = 0;
  }
  for (int t = begin, m = first; t < horizon; ++t) {
    const double mean = means[static_cast<size_t>(m)];
    const int64_t count =
        Rng::UsesKnuth(mean)
            ? rng->PoissonBelow(limits[static_cast<size_t>(m)])
            : rng->Poisson(mean);
    (*counts)[static_cast<size_t>(t)] += static_cast<uint32_t>(count);
    if (++m == kMinutesPerDay) m = 0;
  }
}

void SynthSuccessiveBurst(Rng* rng, double mean_idle_minutes,
                          int min_active_slots, int min_active_count,
                          std::vector<uint32_t>* counts, int begin) {
  static const double kLimit = Rng::PoissonLimit(2.0);
  const int horizon = static_cast<int>(counts->size());
  int t = begin + static_cast<int>(rng->Exponential(1.0 / mean_idle_minutes));
  while (t < horizon) {
    // Burst: at least min_active_slots consecutive active slots whose total
    // count comfortably exceeds min_active_count (temporal locality).
    const int slots =
        min_active_slots + static_cast<int>(rng->UniformInt(0, 6));
    uint32_t total = 0;
    for (int s = 0; s < slots && t + s < horizon; ++s) {
      const uint32_t c = 1 + static_cast<uint32_t>(rng->PoissonBelow(kLimit));
      (*counts)[static_cast<size_t>(t + s)] += c;
      total += c;
    }
    // Top up the first burst slot if the draw came in under the floor.
    if (total < static_cast<uint32_t>(min_active_count) && t < horizon) {
      (*counts)[static_cast<size_t>(t)] +=
          static_cast<uint32_t>(min_active_count) - total;
    }
    t += slots +
         static_cast<int>(rng->Exponential(1.0 / mean_idle_minutes));
  }
}

void SynthPulsedBurst(Rng* rng, double mean_idle_minutes,
                      std::vector<uint32_t>* counts, int begin) {
  const int horizon = static_cast<int>(counts->size());
  int t = begin + static_cast<int>(rng->Exponential(1.0 / mean_idle_minutes));
  while (t < horizon) {
    // Weak temporal locality: 2-4 active slots, small counts, so the
    // successive-type floor (gamma_1/gamma_2) is NOT met.
    const int slots = 2 + static_cast<int>(rng->UniformInt(0, 2));
    for (int s = 0; s < slots && t + s < horizon; ++s) {
      (*counts)[static_cast<size_t>(t + s)] += 1;
    }
    t += slots +
         static_cast<int>(rng->Exponential(1.0 / mean_idle_minutes));
  }
}

void SynthRarePossible(Rng* rng, int base_gap, std::vector<uint32_t>* counts,
                       int begin) {
  const int horizon = static_cast<int>(counts->size());
  if (base_gap < 30) base_gap = 30;
  // Gaps alternate between two recurring values (e.g. a 6-hour and a
  // 24-hour cadence), so the WT multiset has repeated modes — the defining
  // property of SPES's "possible" type.
  const int gap_a = base_gap;
  const int gap_b = base_gap * 2 + static_cast<int>(rng->UniformInt(0, 3));
  int t = begin + static_cast<int>(rng->UniformInt(0, base_gap));
  bool use_a = true;
  while (t < horizon) {
    (*counts)[static_cast<size_t>(t)] += 1;
    t += use_a ? gap_a : gap_b;
    if (rng->Bernoulli(0.7)) use_a = !use_a;
  }
}

void SynthRareRandom(Rng* rng, int num_events, std::vector<uint32_t>* counts,
                     int begin) {
  const int horizon = static_cast<int>(counts->size());
  if (horizon <= begin) return;
  for (int i = 0; i < num_events; ++i) {
    const int t =
        begin + static_cast<int>(rng->UniformInt(0, horizon - begin - 1));
    (*counts)[static_cast<size_t>(t)] += 1;
  }
}

namespace {

/// Which archetype a fresh function of a given trigger type gets, following
/// the correspondences of §III-B1 (timers are (quasi-)periodic, HTTP is
/// Poisson-with-bursts, queues are dense, storage/event are bursty, ...).
PatternKind SampleKindForTrigger(Rng* rng, TriggerType trigger) {
  switch (trigger) {
    case TriggerType::kTimer: {
      // 68% (quasi-)periodic per the paper's KS-test analysis.
      static const std::vector<double> w = {0.46, 0.26, 0.08, 0.17, 0.03};
      static const PatternKind kinds[] = {
          PatternKind::kRegularTimer, PatternKind::kApproRegular,
          PatternKind::kAlwaysWarm, PatternKind::kRarePossible,
          PatternKind::kRareRandom};
      return kinds[rng->WeightedIndex(w)];
    }
    case TriggerType::kHttp: {
      // ~45% Poisson arrivals; the rest bursty or rare.
      static const std::vector<double> w = {0.45, 0.19, 0.05, 0.06, 0.20,
                                            0.05};
      static const PatternKind kinds[] = {
          PatternKind::kDensePoisson,    PatternKind::kSuccessiveBurst,
          PatternKind::kPulsedBurst,     PatternKind::kAlwaysWarm,
          PatternKind::kRarePossible,    PatternKind::kRareRandom};
      return kinds[rng->WeightedIndex(w)];
    }
    case TriggerType::kQueue: {
      static const std::vector<double> w = {0.55, 0.08, 0.19, 0.13, 0.05};
      static const PatternKind kinds[] = {
          PatternKind::kDensePoisson, PatternKind::kPulsedBurst,
          PatternKind::kSuccessiveBurst, PatternKind::kRarePossible,
          PatternKind::kRareRandom};
      return kinds[rng->WeightedIndex(w)];
    }
    case TriggerType::kStorage: {
      static const std::vector<double> w = {0.53, 0.12, 0.23, 0.12};
      static const PatternKind kinds[] = {
          PatternKind::kSuccessiveBurst, PatternKind::kPulsedBurst,
          PatternKind::kRarePossible, PatternKind::kRareRandom};
      return kinds[rng->WeightedIndex(w)];
    }
    case TriggerType::kEvent: {
      static const std::vector<double> w = {0.20, 0.40, 0.28, 0.12};
      static const PatternKind kinds[] = {
          PatternKind::kPulsedBurst, PatternKind::kDensePoisson,
          PatternKind::kRarePossible, PatternKind::kRareRandom};
      return kinds[rng->WeightedIndex(w)];
    }
    case TriggerType::kOrchestration: {
      // Orchestrated workflows: drivers look dense/regular, the followers
      // are generated separately as chain followers.
      static const std::vector<double> w = {0.40, 0.30, 0.20, 0.10};
      static const PatternKind kinds[] = {
          PatternKind::kDensePoisson, PatternKind::kRegularTimer,
          PatternKind::kSuccessiveBurst, PatternKind::kRareRandom};
      return kinds[rng->WeightedIndex(w)];
    }
    case TriggerType::kOthers:
      break;
  }
  static const std::vector<double> w = {0.2, 0.55, 0.25};
  static const PatternKind kinds[] = {PatternKind::kPulsedBurst,
                                      PatternKind::kRarePossible,
                                      PatternKind::kRareRandom};
  return kinds[rng->WeightedIndex(w)];
}

/// Fig. 5 trigger mix, with the 2.6% "combination" bucket folded into
/// "others" (a combination function still has one dominant timing pattern,
/// per the paper's own argument for ignoring combinations).
TriggerType SampleTrigger(Rng* rng) {
  static const std::vector<double> w = {
      0.4119,  // http
      0.2664,  // timer
      0.1440,  // queue
      0.0219,  // storage
      0.0252,  // event
      0.0776,  // orchestration
      0.0532,  // others (incl. combination)
  };
  static const TriggerType triggers[] = {
      TriggerType::kHttp,  TriggerType::kTimer, TriggerType::kQueue,
      TriggerType::kStorage, TriggerType::kEvent,
      TriggerType::kOrchestration, TriggerType::kOthers};
  return triggers[rng->WeightedIndex(w)];
}

/// Synthesizes one function's counts for `kind` from slot `begin` on.
/// `intensity` in (0,1] scales rates/periods: large => busy function.
void SynthKind(Rng* rng, PatternKind kind, double intensity,
               std::vector<uint32_t>* counts, int begin, GroundTruth* truth) {
  switch (kind) {
    case PatternKind::kAlwaysWarm:
      SynthAlwaysWarm(rng, counts, begin);
      return;
    case PatternKind::kRegularTimer: {
      // Busier functions get shorter periods; cap at 8 hours.
      const int period = std::clamp(
          static_cast<int>(5.0 / std::max(intensity, 1e-3)), 2, 480);
      truth->period = period;
      SynthRegular(rng, period, counts, begin);
      return;
    }
    case PatternKind::kApproRegular: {
      const int period = std::clamp(
          static_cast<int>(8.0 / std::max(intensity, 1e-3)), 3, 480);
      truth->period = period;
      SynthApproRegular(rng, period, counts, begin);
      return;
    }
    case PatternKind::kDensePoisson:
      SynthDensePoisson(rng, 0.8 + 6.0 * intensity, counts, begin);
      return;
    case PatternKind::kSuccessiveBurst:
      SynthSuccessiveBurst(rng, /*mean_idle_minutes=*/
                           200.0 + 1500.0 * (1.0 - intensity),
                           /*min_active_slots=*/4, /*min_active_count=*/8,
                           counts, begin);
      return;
    case PatternKind::kPulsedBurst:
      SynthPulsedBurst(rng, 300.0 + 2500.0 * (1.0 - intensity), counts,
                       begin);
      return;
    case PatternKind::kRarePossible:
      SynthRarePossible(rng,
                        static_cast<int>(240 + 1200 * (1.0 - intensity)),
                        counts, begin);
      return;
    case PatternKind::kRareRandom:
      SynthRareRandom(rng, 1 + static_cast<int>(rng->UniformInt(0, 4)),
                      counts, begin);
      return;
    case PatternKind::kChainFollower:
    case PatternKind::kUnseen:
      // Handled by the caller.
      return;
  }
}

}  // namespace

Status GenerateTraceStreamed(const GeneratorConfig& config,
                             const GeneratedFunctionSink& sink) {
  if (config.num_functions <= 0) {
    return Status::InvalidArgument("num_functions must be positive");
  }
  if (config.days < 2) {
    return Status::InvalidArgument("need at least 2 days of horizon");
  }
  const int horizon = config.days * kMinutesPerDay;
  Rng rng(config.seed);

  /// Functions emitted so far == the index the next function will get.
  int64_t emitted = 0;

  // --- Carve the fleet into owners and applications. -----------------------
  struct AppPlan {
    std::string owner;
    std::string app;
    int size = 1;
    bool is_chain = false;
  };
  std::vector<AppPlan> apps;
  {
    int remaining = config.num_functions;
    uint64_t owner_counter = 0, app_counter = 0;
    while (remaining > 0) {
      const std::string owner = HashName("owner", ++owner_counter);
      // Number of apps this owner has (geometric-ish around the mean).
      int owner_apps = 1;
      while (rng.Bernoulli(1.0 - 1.0 / config.mean_apps_per_owner) &&
             owner_apps < 6) {
        ++owner_apps;
      }
      for (int a = 0; a < owner_apps && remaining > 0; ++a) {
        AppPlan plan;
        plan.owner = owner;
        plan.app = HashName("app", ++app_counter);
        // App sizes mirror the Azure population: about half of all apps
        // hold a single function (Shahrad et al.), with a geometric tail
        // of multi-function apps lifting the mean toward
        // mean_functions_per_app (~3.3 on the real trace).
        if (rng.Bernoulli(0.54)) {
          plan.size = 1;
        } else {
          plan.size = 2;
          while (rng.Bernoulli(0.8) && plan.size < 12) ++plan.size;
        }
        plan.size = std::min(plan.size, remaining);
        plan.is_chain =
            plan.size >= 2 && rng.Bernoulli(config.chain_app_fraction);
        remaining -= plan.size;
        apps.push_back(std::move(plan));
      }
    }
  }

  // --- Generate functions app by app. --------------------------------------
  const int unseen_begin = horizon - config.unseen_days * kMinutesPerDay;
  uint64_t func_counter = 0;

  for (const AppPlan& app : apps) {
    // A per-app trigger: functions within one app overwhelmingly share the
    // trigger type (the paper reports same-trigger candidates having 2x the
    // co-occurrence of different-trigger ones).
    const TriggerType app_trigger = SampleTrigger(&rng);

    // Index of this app's chain driver within the freshly added functions.
    int64_t driver_index = -1;
    std::vector<uint32_t> driver_counts;

    for (int k = 0; k < app.size; ++k) {
      FunctionTrace f;
      f.meta.owner = app.owner;
      f.meta.app = app.app;
      f.meta.name = HashName("func", ++func_counter);
      // ~8% of functions deviate from the app's trigger.
      f.meta.trigger =
          rng.Bernoulli(0.08) ? SampleTrigger(&rng) : app_trigger;
      f.counts.assign(static_cast<size_t>(horizon), 0);

      GroundTruth truth;
      Rng frng = rng.Fork();

      const bool unseen = rng.Bernoulli(config.unseen_fraction);
      const int begin = unseen ? unseen_begin : 0;

      if (app.is_chain && k > 0 && driver_index >= 0 && !unseen) {
        // Chain follower: fires `lag` minutes after each driver event.
        truth.kind = PatternKind::kChainFollower;
        truth.chain_driver = driver_index;
        truth.chain_lag =
            1 + static_cast<int>(frng.UniformInt(0, config.chain_max_lag - 1));
        for (int t = 0; t < horizon; ++t) {
          if (driver_counts[static_cast<size_t>(t)] == 0) continue;
          const int fire_at = t + truth.chain_lag;
          if (fire_at >= horizon) break;
          if (frng.Bernoulli(config.chain_follow_probability)) {
            f.counts[static_cast<size_t>(fire_at)] += 1;
          }
        }
        // Sparse unrelated noise so the correlation is < 1.
        if (frng.Bernoulli(0.3)) {
          SynthRareRandom(&frng, 2, &f.counts, 0);
        }
      } else {
        // Heavy-tailed intensity: rank 1 is the busiest of n levels.
        const int64_t levels = 1000;
        const int64_t rank =
            frng.Zipf(levels, config.intensity_zipf_exponent);
        const double intensity =
            1.0 / static_cast<double>(rank);  // in (1/levels, 1]
        PatternKind kind = SampleKindForTrigger(&frng, f.meta.trigger);
        // Population scale-up knob: at Azure scale most of the fleet sits
        // in the rarely-invoked tail, so optionally force a fraction of
        // functions onto the rare archetypes. Guarded so the default
        // (rare_fraction == 0) consumes no random draws and existing
        // (seed, config) pairs stay bit-identical.
        if (config.rare_fraction > 0.0 &&
            frng.Bernoulli(config.rare_fraction)) {
          kind = frng.Bernoulli(0.5) ? PatternKind::kRarePossible
                                     : PatternKind::kRareRandom;
        }
        truth.kind = unseen ? PatternKind::kUnseen : kind;

        SynthKind(&frng, kind, intensity, &f.counts, begin, &truth);

        // Concept shift: re-synthesize the suffix with fresh parameters
        // (possibly a different archetype), as in Fig. 4.
        if (!unseen && rng.Bernoulli(config.concept_shift_fraction)) {
          const int shift = static_cast<int>(
              frng.UniformInt(horizon / 4, (horizon * 3) / 4));
          truth.shift_minute = shift;
          std::fill(f.counts.begin() + shift, f.counts.end(), 0u);
          PatternKind new_kind = kind;
          if (frng.Bernoulli(0.4)) {
            new_kind = SampleKindForTrigger(&frng, f.meta.trigger);
          }
          const double new_intensity =
              1.0 / static_cast<double>(
                        frng.Zipf(levels, config.intensity_zipf_exponent));
          GroundTruth shifted = truth;
          SynthKind(&frng, new_kind, new_intensity, &f.counts, shift,
                    &shifted);
        }

        if (app.is_chain && k == 0) {
          driver_index = emitted;
          driver_counts = f.counts;
        }
      }

      SPES_RETURN_NOT_OK(sink(std::move(f), truth));
      ++emitted;
    }
  }
  return Status::OK();
}

Result<GeneratedTrace> GenerateTrace(const GeneratorConfig& config) {
  GeneratedTrace out;
  out.trace = Trace(config.days * kMinutesPerDay);
  out.truth.reserve(static_cast<size_t>(
      std::max(config.num_functions, 0)));
  SPES_RETURN_NOT_OK(GenerateTraceStreamed(
      config, [&out](FunctionTrace&& f, const GroundTruth& truth) -> Status {
        SPES_RETURN_NOT_OK(out.trace.Add(std::move(f)));
        out.truth.push_back(truth);
        return Status::OK();
      }));
  return out;
}

}  // namespace spes
