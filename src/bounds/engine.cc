#include "bounds/engine.h"

#include "bounds/bound_engine.h"

namespace lpb {

BoundResult PolymatroidBound(int n, const std::vector<ConcreteStatistic>& stats,
                             const EngineOptions& options) {
  return FindBoundEngine("gamma")
      ->Compile(StructureOf(n, stats), options)
      ->Evaluate(ValuesOf(stats));
}

std::vector<ConcreteStatistic> FilterAgmStatistics(
    const std::vector<ConcreteStatistic>& stats) {
  std::vector<ConcreteStatistic> out;
  for (const ConcreteStatistic& s : stats) {
    if (IsAgmShape({s.sigma, s.p})) out.push_back(s);
  }
  return out;
}

std::vector<ConcreteStatistic> FilterPandaStatistics(
    const std::vector<ConcreteStatistic>& stats) {
  std::vector<ConcreteStatistic> out;
  for (const ConcreteStatistic& s : stats) {
    if (IsPandaShape({s.sigma, s.p})) out.push_back(s);
  }
  return out;
}

}  // namespace lpb
