package main

import (
	"math"
	"testing"

	"secemb/internal/core"
	"secemb/internal/obs"
)

// Each output check must pass on good values and fail when exactly one
// value is perturbed; otherwise a green benchmark run would prove nothing.

func TestCheckPredictTeeth(t *testing.T) {
	ref := []float32{-0.41, 0, 0.2, 0.35}
	probs := make([]float32, len(ref))
	for i, l := range ref {
		probs[i] = float32(1 / (1 + math.Exp(-float64(l))))
	}
	if err := checkPredict(probs, ref, dlrmLogitTol); err != nil {
		t.Fatalf("good batch rejected: %v", err)
	}
	for name, perturb := range map[string]func(p []float32){
		"logit off by 2×tol": func(p []float32) {
			l := float64(ref[2]) + 2*dlrmLogitTol
			p[2] = float32(1 / (1 + math.Exp(-l)))
		},
		"probability 1":   func(p []float32) { p[1] = 1 },
		"probability 0":   func(p []float32) { p[3] = 0 },
		"probability NaN": func(p []float32) { p[0] = float32(math.NaN()) },
	} {
		bad := append([]float32(nil), probs...)
		perturb(bad)
		if checkPredict(bad, ref, dlrmLogitTol) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckNearTeeth(t *testing.T) {
	want := []float32{0.5, -0.25, 0.125}
	got := []float32{0.55, -0.3, 0.125}
	if err := checkNear(got, want, int8RowTol); err != nil {
		t.Fatalf("rows within the gate rejected: %v", err)
	}
	got[2] += 0.11
	if checkNear(got, want, int8RowTol) == nil {
		t.Error("a row 0.11 off accepted")
	}
	got[2] = float32(math.NaN())
	if checkNear(got, want, int8RowTol) == nil {
		t.Error("a NaN row accepted")
	}
}

func TestCheckRowHashesTeeth(t *testing.T) {
	const dim = 4
	rows := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	ids := []uint64{7, 9}
	ref := map[uint64]uint64{7: hashFloats(rows[:dim]), 9: hashFloats(rows[dim:])}
	if err := checkRowHashes(rows, dim, ids, ref); err != nil {
		t.Fatalf("identical rows rejected: %v", err)
	}
	bad := append([]float32(nil), rows...)
	bad[5] = math.Float32frombits(math.Float32bits(bad[5]) ^ 1) // one ulp
	if checkRowHashes(bad, dim, ids, ref) == nil {
		t.Error("a row one ulp off accepted")
	}
	if checkRowHashes(rows, dim, []uint64{9, 7}, ref) == nil {
		t.Error("rows of swapped ids accepted")
	}
}

func TestLogitFingerprintTeeth(t *testing.T) {
	logits := []float32{0.1, -2.5, 3.25, 0}
	want := hashFloats(logits)
	bad := append([]float32(nil), logits...)
	bad[3] = math.Float32frombits(0x80000000) // -0: equal value, other bits
	if hashFloats(bad) == want {
		t.Error("fingerprint missed a changed sign bit")
	}
}

func TestSizeBookTeeth(t *testing.T) {
	b := newSizeBook(64)
	for _, r := range []struct{ count, bytes int }{{1, 100}, {2, 200}, {3, 400}, {4, 400}, {33, 6000}, {64, 6000}} {
		if err := b.observe(r.count, r.bytes); err != nil {
			t.Fatalf("consistent sizes rejected: %v", err)
		}
	}
	if err := b.monotone(); err != nil {
		t.Fatalf("growing sizes rejected: %v", err)
	}
	if b.observe(3, 401) == nil {
		t.Error("a different size inside bucket 4 accepted")
	}
	if b.observe(100, 6000) != nil {
		t.Error("a count above the cap must share the capped bucket")
	}
	shrink := newSizeBook(64)
	_ = shrink.observe(1, 100)
	_ = shrink.observe(8, 90)
	if shrink.monotone() == nil {
		t.Error("a larger bucket with fewer bytes accepted")
	}
}

func TestCheckRegimesTeeth(t *testing.T) {
	reg := obs.NewRegistry()
	p := &genProbe{}
	p.calls[core.CircuitORAM].Add(15)
	p.calls[core.DHE].Add(1)
	reg.Counter("core_generate_total", obs.LabelTech, core.CircuitORAM.Key()).Add(15)
	reg.Counter("core_generate_total", obs.LabelTech, core.DHE.Key()).Add(1)
	if err := checkRegimes(reg, []*genProbe{p}); err != nil {
		t.Fatalf("matching counts rejected: %v", err)
	}
	// One call served by the DHE that should have gone to the ORAM.
	reg.Counter("core_generate_total", obs.LabelTech, core.DHE.Key()).Add(1)
	if checkRegimes(reg, []*genProbe{p}) == nil {
		t.Error("one call in the wrong regime accepted")
	}
}
