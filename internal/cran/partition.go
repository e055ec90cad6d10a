package cran

import (
	"fmt"

	"github.com/tsajs/tsajs/internal/geom"
)

// PartitionConfig turns a coordinator into one shard of a multi-coordinator
// cluster: the shard owns the subset of cells the assignment table maps to
// its index, rejects requests for any other cell (CodeWrongShard), and
// solves each owned cell as its own scheduling epoch.
//
// Per-cell solving is what makes sharding exact rather than approximate: the
// TSAJS objective couples users only through the uplink slots of their
// serving site, so a user's decision depends only on the other users of the
// same cell. A cluster of K shards therefore computes bit-identical per-cell
// decisions for any K — including K=1 — as long as every shard is configured
// with the same Params and Seed. The per-cell RNG streams are derived from
// (Seed, cell, cell epoch) alone, independent of which shard owns the cell,
// which worker solves it, or what other cells are doing.
type PartitionConfig struct {
	// Shards is the cluster size K.
	Shards int
	// Index is this coordinator's shard index in [0, Shards).
	Index int
	// Assignment is the explicit cell→shard ownership table,
	// len == Params.NumServers. Every shard of a cluster (and the shard
	// client routing to it) must be given the same table — typically
	// materialized once from the consistent-hash ring (shard.Ring).
	Assignment []int
}

// Validate checks the partition against the network's cell count.
func (pc *PartitionConfig) Validate(numCells int) error {
	if pc.Shards <= 0 {
		return fmt.Errorf("cran: partition needs at least one shard, got %d", pc.Shards)
	}
	if pc.Index < 0 || pc.Index >= pc.Shards {
		return fmt.Errorf("cran: shard index %d outside [0,%d)", pc.Index, pc.Shards)
	}
	if len(pc.Assignment) != numCells {
		return fmt.Errorf("cran: assignment covers %d cells, network has %d", len(pc.Assignment), numCells)
	}
	for c, s := range pc.Assignment {
		if s < 0 || s >= pc.Shards {
			return fmt.Errorf("cran: cell %d assigned to shard %d outside [0,%d)", c, s, pc.Shards)
		}
	}
	return nil
}

// OwnedCells lists the cells this shard owns, ascending.
func (pc *PartitionConfig) OwnedCells() []int {
	var cells []int
	for c, s := range pc.Assignment {
		if s == pc.Index {
			cells = append(cells, c)
		}
	}
	return cells
}

// cellStreamLabel offsets the per-cell base RNG streams from the shard-level
// epoch streams of the unpartitioned coordinator, so a cell's stream can
// never collide with an epoch number.
const cellStreamLabel = 0x9d2c5680

// partitionCell resolves the cell serving a request's position and checks
// ownership. ok=false means the request belongs to another shard and resp
// carries the typed rejection.
func (s *Server) partitionCell(req OffloadRequest) (cell int, resp OffloadResponse, ok bool) {
	pc := s.cfg.Partition
	cell, _ = geom.Nearest(req.Pos, s.sites)
	if owner := pc.Assignment[cell]; owner != pc.Index {
		s.stats.wrongShard()
		return 0, OffloadResponse{
			Version: ProtocolVersion,
			UserID:  req.UserID,
			Error: fmt.Sprintf("%s: cell %d is owned by shard %d, this is shard %d",
				ErrWrongShard.Error(), cell, owner, pc.Index),
			Code: CodeWrongShard,
		}, false
	}
	return cell, OffloadResponse{}, true
}
