package tabletest_test

import (
	"testing"

	"dramhit/internal/shardmap"
	"dramhit/internal/table"
	"dramhit/internal/tabletest"
)

// TestShardmapConformance runs the shared conformance suite against the
// sharded facades: the synchronous router at one shard (pure routing
// overhead), at four shards (cross-shard routing), and with one-slot
// migration chunks (the finest helping schedule, so any auto-split the
// suite provokes opens the longest possible window for the concurrent
// subtests to race). LooseCapacity applies throughout: the map grows by
// splitting and never reports full.
func TestShardmapConformance(t *testing.T) {
	tabletest.Run(t, "Shardmap1",
		func(n uint64) table.Map { return shardmap.New(n) },
		tabletest.LooseCapacity())
	tabletest.Run(t, "Shardmap4",
		func(n uint64) table.Map { return shardmap.New(n, shardmap.WithShards(4)) },
		tabletest.LooseCapacity())
	tabletest.Run(t, "ShardmapChunk1",
		func(n uint64) table.Map {
			return shardmap.New(n, shardmap.WithChunkSlots(1))
		},
		tabletest.LooseCapacity())
}
