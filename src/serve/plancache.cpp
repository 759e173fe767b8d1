//===- serve/plancache.cpp - LRU cache of planned, compiled queries -------===//

#include "serve/plancache.h"

#include <algorithm>

using namespace etch;

PlanCache::PlanCache(size_t Cap) : Cap(std::max<size_t>(1, Cap)) {}

void PlanCache::touchLocked(Slot &S) { Lru.splice(Lru.begin(), Lru, S.LruIt); }

void PlanCache::evictToCapLocked() {
  // Least-recently-used first, but never a retained plan: evicting one
  // would silently turn the next view refresh into a planner run. A cache
  // saturated with retained plans simply rides above its cap.
  auto It = Lru.end();
  while (Map.size() > Cap && It != Lru.begin()) {
    --It;
    auto MIt = Map.find(*It);
    if (MIt->second.P->Retain)
      continue;
    Map.erase(MIt);
    It = Lru.erase(It);
    ++Stats.Evictions;
  }
}

CachedPlanRef PlanCache::lookup(const std::string &Key) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Map.find(Key);
  if (It == Map.end()) {
    ++Stats.Misses;
    return nullptr;
  }
  ++Stats.Hits;
  touchLocked(It->second);
  return It->second.P;
}

CachedPlanRef PlanCache::insert(CachedPlanRef P) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Map.find(P->Key);
  if (It != Map.end()) {
    touchLocked(It->second);
    return It->second.P; // Incumbent wins; concurrent planners converge.
  }
  Lru.push_front(P->Key);
  Map.emplace(P->Key, Slot{P, Lru.begin()});
  evictToCapLocked();
  return P;
}

void PlanCache::invalidateTensor(const std::string &Tensor) {
  std::lock_guard<std::mutex> L(Mu);
  for (auto It = Map.begin(); It != Map.end();) {
    const std::vector<std::string> &Ts = It->second.P->Tensors;
    if (std::find(Ts.begin(), Ts.end(), Tensor) != Ts.end()) {
      if (It->second.P->Retain) {
        // View-keyed delta/refresh plans are refreshed by rebinding, not
        // superseded by a write; dropping them would force a planner run
        // per append — exactly what retention exists to avoid.
        ++Stats.Retained;
        ++It;
        continue;
      }
      Lru.erase(It->second.LruIt);
      It = Map.erase(It);
      ++Stats.Invalidations;
    } else {
      ++It;
    }
  }
}

void PlanCache::erase(const std::string &Key) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Map.find(Key);
  if (It == Map.end())
    return;
  Lru.erase(It->second.LruIt);
  Map.erase(It);
  ++Stats.Invalidations;
}

void PlanCache::countPlannerRun() {
  std::lock_guard<std::mutex> L(Mu);
  ++Stats.PlannerRuns;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  PlanCacheStats S = Stats;
  S.Resident = Map.size();
  return S;
}
