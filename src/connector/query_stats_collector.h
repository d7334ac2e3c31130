// EventListener that aggregates QueryStats across queries — the
// engine-side sink behind the paper's "Pushdown Monitoring" telemetry.
// Totals are kept overall and per connector id, and every completion is
// folded into the process metrics registry as engine.<counter>: the one
// path by which per-query counts reach it (DESIGN.md §8.1), so bench
// reports see engine-level counters without touching the engine.
//
// Thread-safe: QueryCompleted may fire from any thread.
#pragma once

#include <map>
#include <string>

#include "common/thread_annotations.h"
#include "connector/spi.h"

namespace pocs::connector {

class QueryStatsCollector final : public EventListener {
 public:
  // Every QueryStats counter summed over completed queries.
  struct Totals : QueryCounters {
    uint64_t queries = 0;

    double pushdown_accept_rate() const {
      return pushdown_offered == 0
                 ? 0.0
                 : static_cast<double>(pushdown_accepted) /
                       static_cast<double>(pushdown_offered);
    }
  };

  void QueryCompleted(const QueryEvent& event) override;

  Totals totals() const;
  // Totals restricted to one connector/catalog id (zero if never seen).
  Totals TotalsFor(const std::string& connector_id) const;
  // Stats of the most recent completion (default-constructed if none).
  QueryStats last() const;

 private:
  mutable Mutex mu_;
  Totals totals_ POCS_GUARDED_BY(mu_);
  std::map<std::string, Totals> by_connector_ POCS_GUARDED_BY(mu_);
  QueryStats last_ POCS_GUARDED_BY(mu_);
};

}  // namespace pocs::connector
