// Online query front-end over a tiebreaking scheme: the serving layer.
//
// OracleServer is the N=1 case of the sharded serving architecture: the
// whole implementation -- ServerConfig, the query surface, the RCU update
// path, the metrics taxonomy -- lives in serve/oracle_shard.h as
// OracleShard, and a single server IS a single shard serving every root,
// owning its generation manager and running the fleet's update sequence
// (apply, cache advance, one publish, repair) alone. This
// alias-by-inheritance keeps the historical name and every existing
// include working unchanged; multi-shard deployments put N shards on one
// generation manager behind serve/shard_aggregator.h instead, which
// forwards point queries to the owning shard (see docs/ARCHITECTURE.md
// "Sharded serving").
#pragma once

#include "serve/oracle_shard.h"

namespace restorable {

class OracleServer : public OracleShard {
 public:
  using OracleShard::OracleShard;
};

}  // namespace restorable
