#include "connector/query_stats_collector.h"

#include "common/metrics.h"

namespace pocs::connector {

void QueryStatsCollector::QueryCompleted(const QueryEvent& event) {
  {
    MutexLock lock(mu_);
    for (Totals* t : {&totals_, &by_connector_[event.connector_id]}) {
      ++t->queries;
      *t += event.stats;
    }
    last_ = event.stats;
  }

  auto& registry = metrics::Registry::Default();
  static auto& queries = registry.GetCounter("engine.queries");
  static auto& wall = registry.GetHistogram("engine.query_wall_seconds");
  static const CounterExporter<QueryCounters> exporter("engine");
  queries.Increment();
  exporter.Add(event.stats);
  wall.Record(event.stats.wall_seconds);
}

QueryStatsCollector::Totals QueryStatsCollector::totals() const {
  MutexLock lock(mu_);
  return totals_;
}

QueryStatsCollector::Totals QueryStatsCollector::TotalsFor(
    const std::string& connector_id) const {
  MutexLock lock(mu_);
  auto it = by_connector_.find(connector_id);
  return it == by_connector_.end() ? Totals{} : it->second;
}

QueryStats QueryStatsCollector::last() const {
  MutexLock lock(mu_);
  return last_;
}

}  // namespace pocs::connector
