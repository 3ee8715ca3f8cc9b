#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "jobbench.hpp"

namespace jobbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of no values");
  if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument("percentile outside (0, 100]");
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

std::vector<double> selfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children.at(static_cast<std::size_t>(s.parent)).emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Measure the union of the children's intervals, clipped to the parent.
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(end, s.end);
      if (to > from) covered += to - from;
      reach = std::max(reach, std::min(end, s.end));
    }
    self[i] = s.seconds() - covered;
  }
  return self;
}

std::string layerOf(const char* name) {
  const std::string text(name);
  return text.substr(0, text.find('.'));
}

}  // namespace jobbench
