package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"secemb/internal/core"
	"secemb/internal/data"
	"secemb/internal/dlrm"
	"secemb/internal/obs"
	"secemb/internal/tensor"
)

// dlrm-hybrid: the Criteo-Terabyte DLRM miniature (cardinalities ×1e-3,
// dim 64, Table IV MLPs) under the paper's scan/DHE hybrid, driven by one
// caller running Pipeline.Predict on 64-row batches. The split is fixed at
// 4096 rows instead of profiled: four profile.BuildDB calls placed the
// threshold at 78, 83, 85 and 74 rows, which would change the deployed
// techniques from run to run.
const (
	dlrmScale     = 1e-3
	dlrmBatch     = 64
	dlrmScanRows  = 4096 // tables of at most this many rows use batched scan
	dlrmModelSeed = 1    // the model is fixed; --seed draws the inputs
	dlrmBatches   = 16   // distinct input batches, cycled
)

type dlrmBatchIn struct {
	dense     *tensor.Matrix
	sparse    [][]uint64
	refLogits []float32 // Model.Forward, the float training-path forward
}

func runDLRM(cfg config) (*outcome, error) {
	mcfg := dlrm.TerabyteConfig(data.ScaleCardinalities(data.TerabyteCardinalities, dlrmScale), dlrmModelSeed)
	techs := make([]core.Technique, len(mcfg.Cardinalities))
	for f, n := range mcfg.Cardinalities {
		techs[f] = core.LinearScanBatched
		if n > dlrmScanRows {
			techs[f] = core.DHE
		}
	}

	var (
		model *dlrm.Model
		pipe  *dlrm.Pipeline
		reg   *obs.Registry
	)
	setup, err := timeSetups(func() error {
		reg = obs.NewRegistry()
		model = dlrm.New(mcfg, dlrm.DHEVariedEmb)
		pipe = dlrm.BuildHybrid(model, techs, core.Options{Seed: dlrmModelSeed, Int8: true, Obs: reg})
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	out := &outcome{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		pipe.SetObserver(reg)
	}
	l := &lane{}
	probes := make([]*genProbe, len(pipe.Gens))
	var plan []string
	for f, g := range pipe.Gens {
		if g.Technique() != techs[f] {
			return nil, fmt.Errorf("feature %d: built %s, planned %s", f, g.Technique().Key(), techs[f].Key())
		}
		d, _ := core.Underlying(g)
		if techs[f] == core.DHE && !core.Int8Active(g) {
			return nil, fmt.Errorf("feature %d: the int8 DHE gate fell back to float32", f)
		}
		probes[f] = newGenProbe(g, d, tr, l)
		pipe.Gens[f] = probes[f]
		plan = append(plan, fmt.Sprintf("%d:%s/%d", f, techs[f].Key(), mcfg.Cardinalities[f]))
	}
	out.notef("dlrm-hybrid: techniques per feature (feature:technique/rows): %s", strings.Join(plan, " "))

	rng := rand.New(rand.NewSource(cfg.seed))
	inputs := make([]dlrmBatchIn, dlrmBatches)
	for i := range inputs {
		in := &inputs[i]
		in.dense = tensor.NewUniform(dlrmBatch, mcfg.DenseDim, 1, rng)
		in.sparse = make([][]uint64, len(mcfg.Cardinalities))
		for f, n := range mcfg.Cardinalities {
			in.sparse[f] = make([]uint64, dlrmBatch)
			for r := range in.sparse[f] {
				in.sparse[f][r] = data.ZipfValue(rng, n)
			}
		}
		in.refLogits = append([]float32(nil), model.Forward(in.dense, in.sparse).Data...)
	}

	var (
		chk     checks
		batches series
		next    int
	)
	round := func(int) error {
		in := &inputs[next%len(inputs)]
		next++
		o := tr.begin()
		pc, pr := l.enter(o, 0)
		start := time.Now()
		probs, err := pipe.Predict(in.dense, in.sparse)
		end := time.Now()
		l.leave(pc, pr)
		tr.end(o, "dlrm.predict", 0, 0, dlrmBatch)
		if err != nil {
			return err
		}
		batches.add(end, end.Sub(start), dlrmBatch)
		if err := checkPredict(probs.Data, in.refLogits, dlrmLogitTol); err != nil {
			chk.fail("batch %d: %v", (next-1)%len(inputs), err)
		}
		return nil
	}
	runPhase(warmup, 1, nil, round)
	batches.reset()
	ph := runPhase(cfg.seconds, 1, tr, round)
	out.attempted, out.failed = ph.attempted, ph.failed
	chk.report(out)
	if err := checkRegimes(reg, probes); err != nil {
		out.problemf("%v", err)
	}

	if !cfg.trace {
		samples := sliceRate(ph.start, &batches)
		p90, p50, n := batches.sliceQuantile(0.9), batches.sliceQuantile(0.5), batches.count()
		cpu := ph.perUnit(batches.units())
		batches.drop()
		setEndToEnd(out, setup, pipe.NumBytes(), liveHeapMB(pipe), cpu, p50)
		out.notef("dlrm-hybrid: samples_per_s=%.1f p50_ms=%.3f p90_ms=%.3f cpu_us_per_sample=%.1f batches=%d steal_pct=%.1f",
			samples, ms(p50), ms(p90), us(cpu), n, ph.stealPct)
		return out, nil
	}
	vals := map[string]float64{}
	spans := tr.byName()
	coreLayers(probes, spans, vals)
	for _, st := range []string{"bottom", "embed", "interact", "top"} {
		vals["dlrm."+st+"_ms"] = reg.Histogram("dlrm_stage_ns", "stage", st).Mean() / 1e6
	}
	phaseLayers(ph, vals)
	out.setLayers(vals)
	path, err := tr.write("dlrm-hybrid", cfg.seed)
	if err != nil {
		return nil, err
	}
	out.notef("spans: %s", path)
	return out, nil
}
