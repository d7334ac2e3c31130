#include "workloads/testbed.h"

namespace pocs::workloads {

Testbed::Testbed(TestbedConfig config) : config_(config) {
  // Keep the engine's time model in sync with the cluster the user built.
  config_.engine.time_model.network_bandwidth_bytes_per_sec =
      config_.cluster.link.bandwidth_bytes_per_sec;
  config_.engine.time_model.network_latency_sec =
      config_.cluster.link.latency_sec;
  config_.engine.time_model.storage_nodes =
      std::max<size_t>(config_.cluster.num_storage_nodes, 1);
  net_ = std::make_shared<netsim::Network>(config_.cluster.link);
  compute_node_ = net_->AddNode("compute");
  cluster_ = std::make_unique<ocs::OcsCluster>(net_, config_.cluster);
  net_->SetLink(compute_node_, cluster_->frontend_node(),
                config_.cluster.link);
  metastore_ = std::make_shared<metastore::Metastore>();
  (void)metastore_->CreateSchema("default");

  engine_ = std::make_unique<engine::QueryEngine>(config_.engine);
  history_ = std::make_shared<connectors::PushdownHistory>();
  engine_->AddEventListener(history_);
  stats_ = std::make_shared<connector::QueryStatsCollector>();
  engine_->AddEventListener(stats_);

  auto frontend_channel = [this] {
    return rpc::Channel(net_, compute_node_, cluster_->frontend_server());
  };

  // Baseline: Hive connector without Select pushdown (raw GETs).
  connectors::HiveConnectorConfig raw = config_.hive;
  raw.select_pushdown = false;
  engine_->RegisterConnector(std::make_shared<connectors::HiveConnector>(
      "hive_raw", metastore_, ocs::OcsClient(frontend_channel()), raw));

  // Baseline: Hive connector with S3-Select-style pushdown.
  connectors::HiveConnectorConfig select = config_.hive;
  select.select_pushdown = true;
  engine_->RegisterConnector(std::make_shared<connectors::HiveConnector>(
      "hive", metastore_, ocs::OcsClient(frontend_channel()), select));

  if (config_.load_aware_dispatch) {
    dispatcher_ = std::make_shared<connectors::SplitDispatcher>(
        config_.dispatcher,
        std::max<size_t>(config_.cluster.num_storage_nodes, 1));
  }

  // The Presto-OCS connector.
  engine_->RegisterConnector(std::make_shared<connectors::OcsConnector>(
      "ocs", metastore_, ocs::OcsClient(frontend_channel()),
      config_.ocs_connector, history_, dispatcher_));
}

void Testbed::RegisterOcsCatalog(const std::string& name,
                                 const connectors::OcsConnectorConfig& config) {
  engine_->RegisterConnector(std::make_shared<connectors::OcsConnector>(
      name, metastore_,
      ocs::OcsClient(
          rpc::Channel(net_, compute_node_, cluster_->frontend_server())),
      config, history_, dispatcher_));
}

void Testbed::SetFaultPlan(std::shared_ptr<const netsim::FaultPlan> plan) {
  net_->SetFaultPlan(std::move(plan));
}

Status Testbed::Ingest(GeneratedDataset dataset) {
  for (auto& [key, bytes] : dataset.files) {
    POCS_RETURN_NOT_OK(
        cluster_->PutObject(dataset.info.bucket, key, std::move(bytes)));
  }
  dataset.files.clear();
  return metastore_->RegisterTable(std::move(dataset.info));
}

}  // namespace pocs::workloads
