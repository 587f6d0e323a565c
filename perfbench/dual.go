package main

import (
	"fmt"
	"math/rand"

	"secemb/internal/core"
	"secemb/internal/dhe"
	"secemb/internal/obs"
)

// The §IV-D Dual as the program's commands deploy it: an int8 DHE for
// batches above the threshold, and a Circuit ORAM over the table
// materialized from that DHE for the rest.
const (
	dualThreshold = 4 // largest batch the ORAM serves (llmbench and secembd default)
	dualSeed      = 1 // representation seed; --seed draws only the inputs
)

// newDual builds a Dual whose generators publish into reg. It fails when
// the int8 accuracy gate fell back to float32, since the workloads claim
// to measure the int8 hot path.
func newDual(rows, dim int, arch core.DHEArch, reg *obs.Registry) (*core.Dual, *dhe.DHE, error) {
	g, err := core.New(core.DHE, rows, dim, core.Options{Seed: dualSeed, DHEArch: arch, Int8: true, Obs: reg})
	if err != nil {
		return nil, nil, err
	}
	if !core.Int8Active(g) {
		return nil, nil, fmt.Errorf("the int8 DHE gate fell back to float32")
	}
	d, _ := core.Underlying(g)
	return core.NewDual(g, dualThreshold, core.Options{Seed: dualSeed + 1, Obs: reg}), d, nil
}

// floatDHE rebuilds, independently of the program's generator, the float
// DHE that core.New makes from dualSeed for the given architecture.
func floatDHE(rows, dim int, arch core.DHEArch) *dhe.DHE {
	rng := rand.New(rand.NewSource(dualSeed))
	if arch == core.ArchLLM {
		return dhe.New(dhe.LLMConfig(dim, dualSeed), rng)
	}
	return dhe.New(dhe.VariedConfig(dim, rows, dualSeed), rng)
}

// dheReference runs the distinct ids through g's DHE regime, in chunks
// large enough to stay above the Dual threshold, and returns each id's row
// fingerprint. Every row must also lie within the int8 gate of the float
// DHE's row for the same id.
func dheReference(g core.Generator, ids []uint64, float *dhe.DHE) (map[uint64]uint64, error) {
	ref := map[uint64]uint64{}
	var distinct []uint64
	for _, id := range ids {
		if _, ok := ref[id]; !ok {
			ref[id] = 0
			distinct = append(distinct, id)
		}
	}
	const chunk = 64
	dim := g.Dim()
	for lo := 0; lo < len(distinct); lo += chunk {
		part := distinct[lo:min(lo+chunk, len(distinct))]
		batch := append([]uint64(nil), part...)
		for len(batch) <= dualThreshold {
			batch = append(batch, part[0])
		}
		rows, err := g.Generate(batch)
		if err != nil {
			return nil, err
		}
		want := float.Generate(part)
		if err := checkNear(rows.Data[:len(part)*dim], want.Data, int8RowTol); err != nil {
			return nil, fmt.Errorf("int8 rows against the float DHE: %v", err)
		}
		for r, id := range part {
			ref[id] = hashFloats(rows.Row(r))
		}
	}
	return ref, nil
}
