package main

import (
	"fmt"
	"math/rand"
	"time"

	"secemb/internal/core"
	"secemb/internal/data"
	"secemb/internal/dhe"
	"secemb/internal/llm"
	"secemb/internal/obs"
	"secemb/internal/tensor"
)

// llm-dual: a GPT-2-architecture trunk at llmbench's default shape whose
// token embedding is the Dual (int8 DHE for the 64-token prefill, Circuit
// ORAM for batch-1 decode). Each request is one sequence: 64 prompt tokens,
// then 16 greedy tokens (the first from the prefill logits, 15 decodes).
const (
	llmVocab   = 50257
	llmDim     = 128
	llmLayers  = 2
	llmHeads   = 4
	llmPrompt  = 64
	llmTokens  = 16
	llmPrompts = 8 // distinct prompts, cycled
)

// llmConfig is the trunk shape; its seed fixes the random trunk weights.
func llmConfig() llm.Config {
	return llm.Config{
		Vocab: llmVocab, Dim: llmDim, Heads: llmHeads, Layers: llmLayers,
		MaxSeq: llmPrompt + llmTokens + 1, Seed: dualSeed,
	}
}

// llmRef is what one prompt must produce: per step (prefill, then each
// decode) the logits' fingerprint and the greedy token.
type llmRef struct {
	prompt []int
	hashes []uint64
	tokens []int
}

// llmSequence runs one request on p and returns every step's logits.
func llmSequence(p *llm.Pipeline, prompt []int) ([][]float32, []int, error) {
	s := p.NewSession(1)
	logits, err := s.Prefill([][]int{prompt})
	if err != nil {
		return nil, nil, err
	}
	var steps [][]float32
	var toks []int
	for {
		steps = append(steps, append([]float32(nil), logits.Row(0)...))
		tok := llm.GreedyNext(logits)[0]
		toks = append(toks, tok)
		if len(toks) == llmTokens {
			return steps, toks, nil
		}
		if logits, err = s.Decode([]int{tok}); err != nil {
			return nil, nil, err
		}
	}
}

// llmReferences checks the Dual pipeline against the same trunk run with
// core.Lookup over the DHE's materialized table — bit-equal embeddings in
// both regimes must give equal logits — and returns the fingerprints the
// timed requests are held to.
func llmReferences(pipe *llm.Pipeline, d *dhe.DHE, prompts [][]int) ([]llmRef, error) {
	lookup, err := core.New(core.Lookup, llmVocab, llmDim, core.Options{Table: d.ToTable(llmVocab)})
	if err != nil {
		return nil, err
	}
	refPipe := llm.NewRandomPipeline(llmConfig(), lookup)
	refs := make([]llmRef, len(prompts))
	for i, prompt := range prompts {
		want, wantToks, err := llmSequence(refPipe, prompt)
		if err != nil {
			return nil, err
		}
		got, gotToks, err := llmSequence(pipe, prompt)
		if err != nil {
			return nil, err
		}
		refs[i].prompt = prompt
		for s := range want {
			if d := maxAbsDiff(got[s], want[s]); d != 0 {
				return nil, fmt.Errorf("prompt %d step %d: logits differ from the lookup reference by up to %g", i, s, d)
			}
			if gotToks[s] != wantToks[s] {
				return nil, fmt.Errorf("prompt %d step %d: token %d, reference %d", i, s, gotToks[s], wantToks[s])
			}
			refs[i].hashes = append(refs[i].hashes, hashFloats(got[s]))
		}
		refs[i].tokens = gotToks
	}
	return refs, nil
}

func runLLM(cfg config) (*outcome, error) {
	var (
		pipe *llm.Pipeline
		dual *core.Dual
		d    *dhe.DHE
		reg  *obs.Registry
	)
	setup, err := timeSetups(func() error {
		reg = obs.NewRegistry()
		var err error
		if dual, d, err = newDual(llmVocab, llmDim, core.ArchLLM, reg); err != nil {
			return err
		}
		pipe = llm.NewRandomPipeline(llmConfig(), dual)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	out := &outcome{}
	out.notef("llm-dual: %v, vocab %d, dim %d, %d layers, %d heads", dual, llmVocab, llmDim, llmLayers, llmHeads)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	l := &lane{}
	probe := newGenProbe(dual, d, tr, l)
	pipe.Gen = probe

	rng := rand.New(rand.NewSource(cfg.seed))
	prompts := make([][]int, llmPrompts)
	for i := range prompts {
		prompts[i] = make([]int, llmPrompt)
		for t := range prompts[i] {
			prompts[i][t] = int(data.ZipfValue(rng, llmVocab))
		}
	}
	refs, err := llmReferences(pipe, d, prompts)
	if err != nil {
		return nil, err
	}

	var (
		chk       checks
		ttft, tbt series
		next      int
	)
	// traced runs one layer call as a span under the request's root span.
	traced := func(root open, name string, n int64, call func() (*tensor.Matrix, error)) (*tensor.Matrix, error) {
		o := tr.begin()
		pc, pr := l.enter(o, root.id)
		m, err := call()
		l.leave(pc, pr)
		tr.end(o, name, root.id, root.id, n)
		return m, err
	}
	argmax := func(root open, logits *tensor.Matrix) int {
		o := tr.begin()
		tok := llm.GreedyNext(logits)[0]
		tr.end(o, "llm.argmax", root.id, root.id, 1)
		return tok
	}
	round := func(int) error {
		ref := &refs[next%len(refs)]
		next++
		root := tr.begin()
		defer func() { tr.end(root, "llm.request", 0, 0, llmTokens) }()
		s := pipe.NewSession(1)
		start := time.Now()
		logits, err := traced(root, "llm.prefill", llmPrompt, func() (*tensor.Matrix, error) {
			return s.Prefill([][]int{ref.prompt})
		})
		if err != nil {
			return err
		}
		tok := argmax(root, logits)
		first := sample{end: time.Now(), units: 1}
		first.dur = first.end.Sub(start)
		steps := make([]sample, 0, llmTokens-1)
		for step := 0; ; step++ {
			if hashFloats(logits.Row(0)) != ref.hashes[step] || tok != ref.tokens[step] {
				chk.fail("prompt %d step %d: logits or token differ from the reference run", (next-1)%len(refs), step)
			}
			if step == llmTokens-1 {
				break
			}
			start = time.Now()
			logits, err = traced(root, "llm.decode", 1, func() (*tensor.Matrix, error) {
				return s.Decode([]int{tok})
			})
			if err != nil {
				return err
			}
			tok = argmax(root, logits)
			end := time.Now()
			steps = append(steps, sample{end: end, dur: end.Sub(start), units: 1})
		}
		ttft.add(first.end, first.dur, first.units)
		for _, x := range steps {
			tbt.add(x.end, x.dur, x.units)
		}
		return nil
	}
	runPhase(warmup, 1, nil, round)
	ttft.reset()
	tbt.reset()
	ph := runPhase(cfg.seconds, 1, tr, round)
	out.attempted, out.failed = ph.attempted, ph.failed
	chk.report(out)
	if err := checkRegimes(reg, []*genProbe{probe}); err != nil {
		out.problemf("%v", err)
	}

	if !cfg.trace {
		tokens := sliceRate(ph.start, &ttft, &tbt)
		ttft90, tbt90 := ttft.sliceQuantile(0.9), tbt.sliceQuantile(0.9)
		ttft50, tbt50, n := ttft.sliceQuantile(0.5), tbt.sliceQuantile(0.5), ttft.count()
		cpu := ph.perUnit(ttft.units() + tbt.units())
		ttft.drop()
		tbt.drop()
		setEndToEnd(out, setup, dual.NumBytes(), liveHeapMB(pipe), cpu, tbt50)
		out.notef("llm-dual: tokens_per_s=%.1f tbt_p50_ms=%.3f tbt_p90_ms=%.3f ttft_p50_ms=%.3f ttft_p90_ms=%.3f cpu_ms_per_token=%.3f requests=%d steal_pct=%.1f",
			tokens, ms(tbt50), ms(tbt90), ms(ttft50), ms(ttft90), ms(cpu), n, ph.stealPct)
		return out, nil
	}
	vals := map[string]float64{}
	spans := tr.byName()
	coreLayers([]*genProbe{probe}, spans, vals)
	oramLayers(reg, probe.ids[core.CircuitORAM].Load(), vals)
	vals["llm.prefill_ms"] = spans["llm.prefill"].meanUS() / 1e3
	vals["llm.decode_ms"] = spans["llm.decode"].meanUS() / 1e3
	vals["llm.argmax_us"] = spans["llm.argmax"].meanUS()
	vals["llm.trunk_decode_ms"] = tr.selfMeanUS("llm.decode", "core."+core.CircuitORAM.Key()) / 1e3
	phaseLayers(ph, vals)
	out.setLayers(vals)
	path, err := tr.write("llm-dual", cfg.seed)
	if err != nil {
		return nil, err
	}
	out.notef("spans: %s", path)
	return out, nil
}
