// The single CQ server (paper Section 2.2, first layer): the one-shard
// ServerCluster.
//
// One bounded input queue, THROTLOOP, the statistics grid, then GRIDREDUCE
// and GREEDYINCREMENT -- the paper's pipeline -- is the cluster's S = 1
// configuration, so the single server runs the cluster's code and nothing
// else (server_cluster.h). CqServer only maps its config onto one shard and
// names that shard's queue. With config.pool set, every parallel section
// runs on the lent pool; otherwise the server runs serially.

#ifndef LIRA_SERVER_CQ_SERVER_H_
#define LIRA_SERVER_CQ_SERVER_H_

#include <utility>

#include "lira/common/status.h"
#include "lira/core/policy.h"
#include "lira/cq/query_registry.h"
#include "lira/motion/update_reduction.h"
#include "lira/server/server_cluster.h"
#include "lira/server/update_queue.h"

namespace lira {

class CqServer : public ServerCluster {
 public:
  /// `policy`, `reduction` and `queries` must outlive the server.
  static StatusOr<CqServer> Create(const CqServerConfig& config,
                                   const LoadSheddingPolicy* policy,
                                   const UpdateReductionFunction* reduction,
                                   const QueryRegistry* queries);

  /// The server's input queue.
  const UpdateQueue& queue() const { return shard_queue(0); }

 private:
  explicit CqServer(ServerCluster cluster)
      : ServerCluster(std::move(cluster)) {}
};

}  // namespace lira

#endif  // LIRA_SERVER_CQ_SERVER_H_
