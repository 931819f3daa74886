#pragma once

// Fixture: a manifest-listed coin file that draws its Pd coin from a
// stateful generator — once naming the generator, once drawing from it.
// (A comment naming util::Rng or bernoulli() is not a finding.)

namespace fix {

struct Coin {
  util::Rng rng_;
  bool drop(double pd) { return rng_.bernoulli(pd); }
};

}  // namespace fix
