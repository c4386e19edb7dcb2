#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace hupc::util {

LogHistogram::LogHistogram(double unit, int sub_bits, int max_log2)
    : unit_(unit), sub_bits_(sub_bits), max_log2_(max_log2) {
  if (!(unit > 0.0)) {
    throw std::invalid_argument("LogHistogram: unit must be positive");
  }
  if (sub_bits < 0 || sub_bits > 8) {
    throw std::invalid_argument("LogHistogram: sub_bits must be in [0, 8]");
  }
  if (max_log2 < 1) {
    throw std::invalid_argument("LogHistogram: max_log2 must be >= 1");
  }
  counts_.assign(
      1 + (static_cast<std::size_t>(max_log2) << static_cast<unsigned>(
               sub_bits)),
      0);
}

int LogHistogram::index_of(double value) const {
  const double scaled = value / unit_;
  if (!(scaled >= 1.0)) return 0;  // also catches NaN
  int major = static_cast<int>(std::floor(std::log2(scaled)));
  const int subs = 1 << static_cast<unsigned>(sub_bits_);
  if (major >= max_log2_) return buckets() - 1;
  // Linear position within the octave [2^major, 2^(major+1)).
  const double frac = scaled / std::ldexp(1.0, major) - 1.0;
  const int sub = std::clamp(static_cast<int>(frac * subs), 0, subs - 1);
  return 1 + major * subs + sub;
}

void LogHistogram::add(double value, std::uint64_t weight) {
  if (weight == 0) return;
  if (total_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  counts_[static_cast<std::size_t>(index_of(value))] += weight;
  total_ += weight;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.unit_ != unit_ || other.sub_bits_ != sub_bits_ ||
      other.max_log2_ != max_log2_) {
    throw std::invalid_argument("LogHistogram::merge: geometry mismatch");
  }
  if (other.total_ == 0) return;
  if (total_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

double LogHistogram::bucket_floor(int index) const {
  if (index <= 0) return 0.0;
  const int subs = 1 << static_cast<unsigned>(sub_bits_);
  const int major = (index - 1) / subs;
  const int sub = (index - 1) % subs;
  const double base = unit_ * std::ldexp(1.0, major);
  return base * (1.0 + static_cast<double>(sub) / subs);
}

double LogHistogram::percentile_ceiling(double p) const {
  if (total_ == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(std::clamp(p, 0.0, 1.0) * static_cast<double>(total_)));
  std::uint64_t seen = 0;
  for (int i = 0; i < buckets(); ++i) {
    seen += counts_[static_cast<std::size_t>(i)];
    if (seen >= target) return bucket_floor(i + 1);
  }
  return bucket_floor(buckets());
}

double LogHistogram::percentile(double p) const {
  if (total_ == 0) return 0.0;
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(
             std::clamp(p, 0.0, 1.0) * static_cast<double>(total_))));
  std::uint64_t seen = 0;
  for (int i = 0; i < buckets(); ++i) {
    const std::uint64_t c = counts_[static_cast<std::size_t>(i)];
    if (seen + c >= target) {
      const double lo = bucket_floor(i);
      const double hi = bucket_floor(i + 1);
      // Midpoint-rank convention: the k-th of the bucket's c samples sits
      // at the CENTER of its 1/c sliver, not its upper edge, so estimates
      // are centered on percentile_sorted's rank interpolation instead of
      // biased high by up to one rank's width.
      const double within = (static_cast<double>(target - seen) - 0.5) /
                            static_cast<double>(c);
      const double est = lo + within * (hi - lo);
      return std::clamp(est, min_, max_);
    }
    seen += c;
  }
  return max_;
}

void LogHistogram::print(std::ostream& os,
                         const std::string& unit_label) const {
  std::uint64_t max_count = 0;
  for (auto c : counts_) max_count = std::max(max_count, c);
  if (max_count == 0) {
    os << "(empty)\n";
    return;
  }
  for (int i = 0; i < buckets(); ++i) {
    const auto c = counts_[static_cast<std::size_t>(i)];
    if (c == 0) continue;
    const int bar = static_cast<int>(40 * c / max_count);
    os << "[" << bucket_floor(i) << ", " << bucket_floor(i + 1) << ") "
       << unit_label << ": " << c << " "
       << std::string(static_cast<std::size_t>(bar), '#') << "\n";
  }
}

}  // namespace hupc::util
