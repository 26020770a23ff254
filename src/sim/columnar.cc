#include "sim/columnar.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace spes {

std::span<const Invocation> ArrivalDecoder::Decode(int t) {
  assert(source_ != nullptr && "ArrivalDecoder used before construction");
  assert(t >= 0 && t < source_->num_minutes());
  if (!status_.ok()) return {};
  if (t < block_start_ || t >= block_end_) {
    // Blocks are aligned to multiples of kBlockMinutes so repeated seeks
    // land on a stable grid — and so file-backed sources with the same
    // block size serve each decode from exactly one stored block.
    status_ = DecodeBlock(t - t % kBlockMinutes);
    if (!status_.ok()) {
      block_end_ = block_start_;  // nothing decoded
      return {};
    }
  }
  const std::vector<Invocation>& bucket =
      buckets_[static_cast<size_t>(t - block_start_)];
  return std::span<const Invocation>(bucket.data(), bucket.size());
}

Status ArrivalDecoder::DecodeBlock(int block_start) {
  block_start_ = block_start;
  block_end_ = std::min(block_start + kBlockMinutes, source_->num_minutes());
  SPES_RETURN_NOT_OK(
      source_->FillArrivals(block_start_, block_end_, &buckets_));
  ++blocks_decoded_;
  const size_t minutes = static_cast<size_t>(block_end_ - block_start_);
  for (size_t i = 0; i < minutes; ++i) {
    invocations_decoded_ += buckets_[i].size();
  }
  return Status::OK();
}

void LaneColumns::Reset(size_t num_functions) {
  invocations.assign(num_functions, 0);
  invoked_minutes.assign(num_functions, 0);
  cold_starts.assign(num_functions, 0);
  loaded_minutes.assign(num_functions, 0);
  loaded_since.assign(num_functions, 0);
  prev_words.assign((num_functions + 63) / 64, 0);
}

void LaneColumns::AccrueResidency(int t, const MemSet& mem) {
  const std::vector<uint64_t>& words = mem.words();
  assert(words.size() == prev_words.size());
  for (size_t w = 0; w < words.size(); ++w) {
    const uint64_t cur = words[w];
    const uint64_t diff = cur ^ prev_words[w];
    if (diff == 0) continue;  // the common case: no transitions in 64 fns
    uint64_t gained = diff & cur;
    while (gained != 0) {
      const size_t f = (w << 6) + std::countr_zero(gained);
      loaded_since[f] = t;
      gained &= gained - 1;
    }
    uint64_t lost = diff & ~cur;
    while (lost != 0) {
      const size_t f = (w << 6) + std::countr_zero(lost);
      loaded_minutes[f] += static_cast<uint64_t>(t - loaded_since[f]);
      lost &= lost - 1;
    }
    prev_words[w] = cur;
  }
}

void LaneColumns::Materialize(int cursor, const MemSet& mem,
                              std::vector<FunctionAccount>* out) const {
  const size_t n = invocations.size();
  const std::vector<uint64_t>& words = mem.words();
  out->resize(n);
  for (size_t f = 0; f < n; ++f) {
    FunctionAccount& acc = (*out)[f];
    acc.invocations = invocations[f];
    acc.invoked_minutes = invoked_minutes[f];
    acc.cold_starts = cold_starts[f];
    uint64_t loaded = loaded_minutes[f];
    if ((words[f >> 6] >> (f & 63)) & 1) {
      loaded += static_cast<uint64_t>(cursor - loaded_since[f]);
    }
    acc.loaded_minutes = loaded;
    acc.wasted_minutes = loaded - invoked_minutes[f];
  }
}

void LaneColumns::LoadFrom(const std::vector<FunctionAccount>& accounts,
                           const MemSet& mem, int cursor) {
  const size_t n = accounts.size();
  Reset(n);
  for (size_t f = 0; f < n; ++f) {
    const FunctionAccount& acc = accounts[f];
    invocations[f] = acc.invocations;
    invoked_minutes[f] = acc.invoked_minutes;
    cold_starts[f] = acc.cold_starts;
    loaded_minutes[f] = acc.loaded_minutes;
  }
  const std::vector<uint64_t>& words = mem.words();
  for (size_t w = 0; w < words.size(); ++w) {
    uint64_t word = words[w];
    while (word != 0) {
      loaded_since[(w << 6) + std::countr_zero(word)] = cursor;
      word &= word - 1;
    }
    prev_words[w] = words[w];
  }
}

}  // namespace spes
