package profile

import (
	"errors"
	"fmt"
	"math"
)

// Persisted planner cost model. The planner's crossover model is seeded
// from analytic priors and refined by observed per-(shard, technique)
// latency/batch EWMAs; those curves are machine-dependent the same way the
// kernel tune is (they embed this host's memory bandwidth and core count),
// so they persist as the CostModel format: saved on shutdown, reloaded on
// start when the fingerprint matches, re-warmed from priors when it does
// not. Shard labels are deployment topology, techniques are configuration,
// and the EWMAs aggregate batch sizes and clocks that never saw an id.

// CostEntry is one fitted EWMA stream: a technique observed on a shard.
type CostEntry struct {
	// Shard is the planner's shard label ("table/index"; "" for the
	// table-wide aggregate stream).
	Shard string `json:"shard"`
	// Tech is the technique key (core.Technique.Key()).
	Tech string `json:"tech"`
	// EWMANs is the smoothed per-batch latency in nanoseconds.
	EWMANs float64 `json:"ewma_ns"`
	// EWMABatch is the smoothed batch size the latency was observed at.
	EWMABatch float64 `json:"ewma_batch"`
}

// validateCostModel requires every entry to be a usable observation.
func validateCostModel(entries []CostEntry) error {
	for _, e := range entries {
		if e.Tech == "" {
			return errors.New("cost model entry missing technique")
		}
		if !(e.EWMANs > 0) || math.IsInf(e.EWMANs, 0) || !(e.EWMABatch >= 0) || math.IsInf(e.EWMABatch, 0) {
			return fmt.Errorf("cost model entry %+v has out-of-range EWMAs", e)
		}
	}
	return nil
}
