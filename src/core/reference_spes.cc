#include "core/reference_spes.h"

#include <algorithm>

namespace spes {

void ReferenceSpesPolicy::ScanOnlineCorrelations(int t, MemSet* mem) {
  for (OnlineCorrState& corr : online_corr_) {
    FunctionState& target_state = states_[corr.target];
    const bool target_fired = invoked_now_[corr.target] != 0;
    if (target_fired) {
      ++corr.target_arrivals;
      corr.grants_since_arrival = 0;
    }

    double max_cor = 0.0;
    for (size_t k = 0; k < corr.candidates.size(); ++k) {
      const FunctionState& cand = states_[corr.candidates[k]];
      const bool cand_recent =
          cand.last_arrival >= 0 &&
          t - cand.last_arrival <= kTcorMaxLag;
      if (target_fired && cand_recent) ++corr.co_count[k];
      if (corr.target_arrivals > 0) {
        max_cor = std::max(
            max_cor, static_cast<double>(corr.co_count[k]) /
                         static_cast<double>(corr.target_arrivals));
      }
    }
    if (corr.target_arrivals >= 3) {
      for (size_t k = 0; k < corr.candidates.size(); ++k) {
        const double cor = static_cast<double>(corr.co_count[k]) /
                           static_cast<double>(corr.target_arrivals);
        if (max_cor - cor > kOnlineCorrDropGap) {
          corr.active[k] = 0;
        } else if (max_cor - cor < kOnlineCorrDropGap / 3.0) {
          corr.active[k] = 1;
        }
      }
    }
    for (size_t k = 0; k < corr.candidates.size(); ++k) {
      if (!corr.active[k] || !invoked_now_[corr.candidates[k]]) continue;
      mem->Add(corr.target);
      const int new_hold = t + kCorrPrewarmHold;
      if (new_hold > target_state.corr_hold_until) {
        target_state.corr_hold_until = new_hold;
        ++corr.grants_since_arrival;
      }
      break;
    }
  }
}

void ReferenceSpesPolicy::OnMinute(int t,
                                   const std::vector<Invocation>& arrivals,
                                   MemSet* mem) {
  StartMinute(t, arrivals, mem);
  ScanOnlineCorrelations(t, mem);

  for (size_t f = 0; f < states_.size(); ++f) {
    if (invoked_now_[f]) continue;
    FunctionState& st = states_[f];

    if (st.model.type == FunctionType::kRegular && !st.model.values.empty() &&
        st.model.values[0] > 0 && st.last_arrival >= 0) {
      if (st.next_predicted < 0) {
        st.next_predicted = st.last_arrival + st.model.values[0];
      }
      while (st.next_predicted + config_.theta_prewarm <
             static_cast<int64_t>(t)) {
        st.next_predicted += st.model.values[0];
      }
    }

    const bool held = t <= st.corr_hold_until;
    const bool preload = held || PredictNearInvocation(st, t);
    if (preload) {
      mem->Add(f);
      continue;
    }
    if (!mem->Contains(f)) continue;
    if (st.last_arrival < 0) {
      mem->Remove(f);
      continue;
    }
    if (CurrentWt(st) >= GivenUpThreshold(st.model.type)) mem->Remove(f);
  }
  EndMinute(arrivals);
}

}  // namespace spes
