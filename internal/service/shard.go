package service

import (
	"net/http"
	"sync"
	"time"

	"oraclesize/internal/campaign"
	"oraclesize/internal/fifo"
)

// ---- POST /v1/shard ----
//
// The shard endpoint is the batch execution path a cluster coordinator
// drives: one request executes a contiguous range of a campaign spec's
// compiled units synchronously and returns every record, grouped per unit,
// so the coordinator pays HTTP overhead per shard rather than per unit.
// A shard occupies exactly one slot of the bounded work queue — the same
// backpressure (503 + Retry-After) and deadline (504) rules as /v1/run
// apply, and the per-request unit count is capped by MaxShardUnits so a
// worker slot is held for a bounded batch.

type shardRequest struct {
	Spec campaign.Spec `json:"spec"`
	// Start and End select the unit-index range [Start, End) of the spec's
	// compiled unit list.
	Start int `json:"start"`
	End   int `json:"end"`
}

type shardResponse struct {
	SpecHash string `json:"spec_hash"`
	Start    int    `json:"start"`
	End      int    `json:"end"`
	// Units holds one record batch per unit, in unit-index order: task
	// units yield one record, experiment units one per table row.
	Units  [][]campaign.Record `json:"units"`
	WallNS int64               `json:"wall_ns"`
}

// unitsCache memoizes compiled unit lists by spec hash, so a coordinator
// fanning hundreds of shard requests for one spec at a worker does not pay
// the full cross-product compilation per request. A handful of entries
// suffices — a worker serves very few distinct specs at once — and entries
// are evicted FIFO.
type unitsCache struct {
	mu      sync.Mutex
	entries map[string][]campaign.Unit
	order   fifo.Queue[string]
}

const unitsCacheCap = 4

func (c *unitsCache) units(spec *campaign.Spec) []campaign.Unit {
	hash := spec.Hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[string][]campaign.Unit, unitsCacheCap)
	}
	if units, ok := c.entries[hash]; ok {
		return units
	}
	units := spec.Units()
	c.entries[hash] = units
	c.order.Push(hash)
	if c.order.Len() > unitsCacheCap {
		delete(c.entries, c.order.Pop())
	}
	return units
}

func (s *Server) handleShard(w http.ResponseWriter, r *http.Request, ts *tenantState) (any, error) {
	var req shardRequest
	if err := s.decodeBody(w, r, &req, ts); err != nil {
		return nil, err
	}
	spec := &req.Spec
	if err := spec.Validate(); err != nil {
		return nil, badRequest("%v", err)
	}
	for _, n := range spec.Sizes {
		if n > s.cfg.MaxNodes {
			return nil, badRequest("spec size n=%d exceeds cap %d", n, s.cfg.MaxNodes)
		}
	}
	// Like /v1/campaign, bound the compiled cross product arithmetically
	// before materializing it.
	total := spec.UnitCount()
	if total > int64(s.cfg.MaxCampaignUnits) {
		return nil, badRequest("spec compiles to %d units, cap is %d", total, s.cfg.MaxCampaignUnits)
	}
	if req.Start < 0 || req.End <= req.Start || int64(req.End) > total {
		return nil, badRequest("shard [%d,%d) out of range for %d units", req.Start, req.End, total)
	}
	if req.End-req.Start > s.cfg.MaxShardUnits {
		return nil, badRequest("shard holds %d units, cap is %d", req.End-req.Start, s.cfg.MaxShardUnits)
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	sh := campaign.Shard{Start: req.Start, End: req.End}
	return s.execute(ctx, ts, func() (any, error) {
		start := time.Now()
		units := s.units.units(spec)
		batches, err := campaign.RunShard(spec, units, sh, s.cache)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		s.metrics.shardUnits.Add(int64(sh.Len()))
		ts.ledger.units.Add(int64(sh.Len()))
		s.observeUnitSeconds(time.Since(start).Seconds() / float64(sh.Len()))
		return &shardResponse{
			SpecHash: spec.Hash(),
			Start:    req.Start,
			End:      req.End,
			Units:    batches,
			WallNS:   time.Since(start).Nanoseconds(),
		}, nil
	})
}
