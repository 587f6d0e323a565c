package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"secemb/internal/core"
	"secemb/internal/dhe"
	"secemb/internal/obs"
	"secemb/internal/serving"
	"secemb/internal/tensor"
)

// numTechs bounds core.Technique values (LinearScanBatched is the last).
const numTechs = int(core.LinearScanBatched) + 1

// genProbe wraps a core.Generator. It always counts calls and ids by the
// technique each call should be served by (for a Dual, Dual.Active of the
// batch size), so a run can prove every call reached the right regime
// against the program's own core_generate_total counters. While its tracer
// is enabled it also records one span per call, named core.<technique>.
type genProbe struct {
	core.Generator
	dual  *core.Dual // set when Generator is a Dual
	enc   *dhe.DHE   // the DHE whose encoder hashenc.encode_us replays
	tr    *tracer
	lane  *lane
	calls [numTechs]atomic.Int64
	ids   [numTechs]atomic.Int64

	mu     sync.Mutex
	replay [][]uint64 // recent traced DHE-regime batches, for the encoder timing
}

// maxReplay bounds the DHE batches kept for the encoder timing.
const maxReplay = 256

func newGenProbe(g core.Generator, d *dhe.DHE, tr *tracer, l *lane) *genProbe {
	p := &genProbe{Generator: g, enc: d, tr: tr, lane: l}
	p.dual, _ = g.(*core.Dual)
	return p
}

func (p *genProbe) regime(batch int) core.Technique {
	if p.dual != nil {
		return p.dual.Active(batch)
	}
	return p.Generator.Technique()
}

// Generate forwards to the wrapped generator.
func (p *genProbe) Generate(ids []uint64) (*tensor.Matrix, error) {
	tech := p.regime(len(ids))
	p.calls[tech].Add(1)
	p.ids[tech].Add(int64(len(ids)))
	o := p.tr.begin()
	out, err := p.Generator.Generate(ids)
	if o.id != 0 {
		p.tr.end(o, "core."+tech.Key(), p.lane.cur, p.lane.req, int64(len(ids)))
		if tech == core.DHE && p.enc != nil {
			p.mu.Lock()
			if len(p.replay) < maxReplay {
				p.replay = append(p.replay, append([]uint64(nil), ids...))
			}
			p.mu.Unlock()
		}
	}
	return out, err
}

// checkRegimes compares the calls each probe expected per technique with
// the core_generate_total counters the program published in reg.
func checkRegimes(reg *obs.Registry, probes []*genProbe) error {
	var want [numTechs]int64
	for _, p := range probes {
		for t := range want {
			want[t] += p.calls[t].Load()
		}
	}
	for t := range want {
		key := core.Technique(t).Key()
		got := reg.Counter("core_generate_total", obs.LabelTech, key).Value()
		if got != want[t] {
			return fmt.Errorf("%d calls should have been served by %s, the program counted %d",
				want[t], key, got)
		}
	}
	return nil
}

// encodeUS times each probe's DHE encoder on the batches it saw while
// traced and returns the mean time per batch in microseconds.
func encodeUS(probes []*genProbe) float64 {
	var total time.Duration
	var batches int
	var buf []float32
	for _, p := range probes {
		p.mu.Lock()
		replay := p.replay
		p.mu.Unlock()
		if p.enc == nil || p.enc.Enc == nil {
			continue
		}
		for _, ids := range replay {
			if need := len(ids) * p.enc.K; cap(buf) < need {
				buf = make([]float32, need)
			}
			start := time.Now()
			p.enc.Enc.EncodeBatchInto(ids, buf[:len(ids)*p.enc.K])
			total += time.Since(start)
			batches++
		}
	}
	if batches == 0 {
		return 0
	}
	return us(total) / float64(batches)
}

// coreLayers derives the core.* and dhe.* per-layer metrics from the spans
// and the probes.
func coreLayers(probes []*genProbe, spans map[string]agg, vals map[string]float64) {
	vals["core.oram_call_us"] = spans["core."+core.CircuitORAM.Key()].meanUS()
	vals["core.dhe_call_us"] = spans["core."+core.DHE.Key()].meanUS()
	vals["core.scan_call_us"] = spans["core."+core.LinearScanBatched.Key()].meanUS()
	var calls, ids int64
	for _, name := range []string{core.CircuitORAM.Key(), core.DHE.Key(), core.LinearScanBatched.Key()} {
		a := spans["core."+name]
		calls += a.count
		ids += a.n
	}
	if calls > 0 {
		vals["core.ids_per_call"] = float64(ids) / float64(calls)
	}
	var flops, flopIDs int64
	active := 1.0
	for _, p := range probes {
		if p.enc == nil {
			continue
		}
		n := p.ids[core.DHE].Load()
		flops += p.enc.FLOPs() * n
		flopIDs += n
		if !p.enc.Int8Active() {
			active = 0
		}
	}
	if flopIDs > 0 {
		vals["dhe.flops_per_id"] = float64(flops) / float64(flopIDs)
		vals["dhe.int8_active"] = active
	}
	vals["hashenc.encode_us"] = encodeUS(probes)
}

// oramLayers derives the oram.* per-layer metrics from the enclave_*
// counters the program publishes for ORAM-backed generators built with
// core.Options.Obs, per ORAM lookup (one id served by the ORAM regime).
func oramLayers(reg *obs.Registry, lookups int64, vals map[string]float64) {
	const variant = "ZT-Gramine-Opt" // the meter core.Instrument attaches
	c := func(name string) float64 {
		return float64(reg.Counter(name, "variant", variant).Value())
	}
	accesses := c("enclave_accesses_total")
	if lookups == 0 || accesses == 0 {
		return
	}
	vals["oram.accesses_per_lookup"] = accesses / float64(lookups)
	vals["oram.buckets_per_access"] = c("enclave_buckets_total") / accesses
	vals["oram.words_per_access"] = c("enclave_words_total") / accesses
	vals["oram.cmov_per_access"] = c("enclave_cmov_total") / accesses
	vals["oram.stash_scans_per_access"] = c("enclave_stash_scans_total") / accesses
	vals["oram.stash_max"] = float64(reg.Gauge("enclave_stash_max", "variant", variant).Value())
}

// backendProbe wraps a serving.Backend to record one serving.execute span
// per fused batch; its lane hands that span to the backend's generator.
type backendProbe struct {
	serving.Backend
	tr   *tracer
	lane *lane
}

// Execute forwards to the wrapped backend.
func (b *backendProbe) Execute(payloads []any) ([]serving.Result, error) {
	o := b.tr.begin()
	pc, pr := b.lane.enter(o, 0)
	res, err := b.Backend.Execute(payloads)
	b.lane.leave(pc, pr)
	b.tr.end(o, "serving.execute", 0, 0, int64(len(payloads)))
	return res, err
}
