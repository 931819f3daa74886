#pragma once

/// \file stats.hpp
/// Exponentially weighted moving average (the detector's |Dj| baseline).

namespace mafic::util {

/// Exponentially weighted moving average. `alpha` is the weight of the new
/// sample; the first sample initializes the average directly.
class Ewma {
 public:
  explicit Ewma(double alpha = 0.25) noexcept : alpha_(alpha) {}

  void update(double x) noexcept {
    if (!initialized_) {
      value_ = x;
      initialized_ = true;
    } else {
      value_ += alpha_ * (x - value_);
    }
  }

  void reset() noexcept {
    initialized_ = false;
    value_ = 0.0;
  }

  bool initialized() const noexcept { return initialized_; }
  double value() const noexcept { return value_; }
  double alpha() const noexcept { return alpha_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace mafic::util
