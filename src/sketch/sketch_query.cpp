#include "sketch/sketch_query.h"

#include <algorithm>
#include <cmath>

namespace streamapprox::sketch {

std::uint64_t sketch_key(const SketchSpec& spec,
                         const engine::Record& record) {
  switch (spec.key) {
    case SketchSpec::KeySource::kValueInt:
      return static_cast<std::uint64_t>(std::llround(record.value));
    case SketchSpec::KeySource::kStratum:
    default:
      return static_cast<std::uint64_t>(record.stratum);
  }
}

SlideSketchState SlideSketchState::make(const SketchSpec& spec) {
  SlideSketchState state;
  state.spec = spec;
  switch (spec.kind) {
    case SketchSpec::Kind::kCountMin:
      state.count_min =
          CountMinSketch::for_error(spec.epsilon, spec.delta, spec.seed);
      break;
    case SketchSpec::Kind::kHyperLogLog:
      state.hll = HyperLogLog::for_error(spec.epsilon, spec.seed);
      break;
    case SketchSpec::Kind::kQuantile:
      state.quantile = QuantileSketch(spec.epsilon);
      break;
  }
  return state;
}

void SlideSketchState::absorb(const engine::Record* records, std::size_t n) {
  seen += n;
  switch (spec.kind) {
    case SketchSpec::Kind::kCountMin: {
      CountMinSketch& sketch = *count_min;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key = sketch_key(spec, records[i]);
        sketch.update(key);
        candidates.insert(key);
      }
      break;
    }
    case SketchSpec::Kind::kHyperLogLog: {
      HyperLogLog& sketch = *hll;
      for (std::size_t i = 0; i < n; ++i) {
        sketch.add(sketch_key(spec, records[i]));
      }
      break;
    }
    case SketchSpec::Kind::kQuantile: {
      QuantileSketch& sketch = *quantile;
      for (std::size_t i = 0; i < n; ++i) sketch.update(records[i].value);
      break;
    }
  }
}

void SlideSketchState::merge(const SlideSketchState& other) {
  seen += other.seen;
  if (count_min && other.count_min) {
    count_min->merge(*other.count_min);
    candidates.insert_all(other.candidates);
  }
  if (hll && other.hll) hll->merge(*other.hll);
  if (quantile && other.quantile) quantile->merge(*other.quantile);
}

SlideSketches::SlideSketches(const SketchPlan& plan) {
  states_.reserve(plan.specs.size());
  for (const SketchSpec& spec : plan.specs) {
    states_.push_back(SlideSketchState::make(spec));
  }
  std::sort(states_.begin(), states_.end(),
            [](const SlideSketchState& a, const SlideSketchState& b) {
              return a.spec.id < b.spec.id;
            });
}

void SlideSketches::absorb(const engine::Record* records, std::size_t n) {
  if (n == 0) return;
  seen_ += n;
  for (SlideSketchState& state : states_) {
    state.absorb(records, n);
  }
}

void SlideSketches::merge(const SlideSketches& other) {
  seen_ += other.seen_;
  for (const SlideSketchState& theirs : other.states_) {
    const auto it = std::lower_bound(
        states_.begin(), states_.end(), theirs.spec.id,
        [](const SlideSketchState& s, std::uint64_t id) {
          return s.spec.id < id;
        });
    if (it != states_.end() && it->spec.id == theirs.spec.id) {
      it->merge(theirs);
    } else {
      states_.insert(it, theirs);
    }
  }
}

const SlideSketchState* SlideSketches::find(std::uint64_t spec_id) const {
  const auto it = std::lower_bound(
      states_.begin(), states_.end(), spec_id,
      [](const SlideSketchState& s, std::uint64_t id) {
        return s.spec.id < id;
      });
  if (it != states_.end() && it->spec.id == spec_id) return &*it;
  return nullptr;
}

}  // namespace streamapprox::sketch
