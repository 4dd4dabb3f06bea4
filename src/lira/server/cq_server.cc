#include "lira/server/cq_server.h"

#include <utility>

namespace lira {

StatusOr<CqServer> CqServer::Create(const CqServerConfig& config,
                                    const LoadSheddingPolicy* policy,
                                    const UpdateReductionFunction* reduction,
                                    const QueryRegistry* queries) {
  ServerClusterConfig cluster;
  cluster.server = config;
  cluster.shards = 1;
  cluster.threads = 1;
  auto built = Build(cluster, policy, reduction, queries);
  if (!built.ok()) {
    return built.status();
  }
  return CqServer(*std::move(built));
}

}  // namespace lira
