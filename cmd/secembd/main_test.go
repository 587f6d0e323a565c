package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secemb/internal/core"
	"secemb/internal/obs"
	"secemb/internal/tensor"
)

func TestParseFlagsAutotune(t *testing.T) {
	c, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !c.autotune {
		t.Fatal("-autotune must default to on")
	}
	if c, err = parseFlags([]string{"-autotune", "off"}, io.Discard); err != nil || c.autotune {
		t.Fatalf("-autotune off: err=%v", err)
	}
	var stderr bytes.Buffer
	if _, err := parseFlags([]string{"-autotune", "maybe"}, &stderr); err == nil {
		t.Fatal("-autotune maybe must be rejected")
	}
	if !strings.Contains(stderr.String(), "must be on or off") {
		t.Fatalf("rejection does not name the accepted values: %q", stderr.String())
	}
}

// TestTuneFileRoundTrip drives -tune-file through the startup helper: the
// first start probes and saves, the second loads the file instead.
func TestTuneFileRoundTrip(t *testing.T) {
	orig := tensor.CurrentTune()
	defer tensor.SetTune(orig)
	path := filepath.Join(t.TempDir(), "tune.json")
	c, err := parseFlags([]string{"-tune-file", path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()

	var first bytes.Buffer
	if err := c.autotune.SetupTuning(c.tuneFile, reg, &first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "kernel autotune:") {
		t.Fatalf("first start did not probe: %q", first.String())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("first start did not save the tune: %v", err)
	}
	probed := tensor.CurrentTune()

	tensor.SetTune(tensor.TuneConfig{})
	var second bytes.Buffer
	if err := c.autotune.SetupTuning(c.tuneFile, reg, &second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.String(), "kernel config loaded from "+path) || strings.Contains(second.String(), "kernel autotune:") {
		t.Fatalf("second start did not load the file: %q", second.String())
	}
	if got := tensor.CurrentTune(); got != probed {
		t.Fatalf("loaded %+v, want the probed %+v", got, probed)
	}
}

func TestPlanInitialRemapsDual(t *testing.T) {
	var out bytes.Buffer
	c := &config{plan: true, technique: "dual"}
	tech, err := planInitial(c, &out)
	if err != nil || tech != core.LinearScanBatched || c.technique != "scanb" {
		t.Fatalf("-plan with dual: tech %v technique %q err %v, want scanb", tech, c.technique, err)
	}
	if !strings.Contains(out.String(), "remapped to scanb") {
		t.Fatalf("remap not announced: %q", out.String())
	}

	out.Reset()
	c = &config{plan: true, technique: "dhe"}
	if tech, err = planInitial(c, &out); err != nil || tech != core.DHE || out.Len() != 0 {
		t.Fatalf("-plan with dhe: tech %v err %v output %q", tech, err, out.String())
	}
	if _, err = planInitial(&config{plan: true, technique: "nope"}, io.Discard); err == nil {
		t.Fatal("unknown technique must be rejected")
	}
}

func TestBuildGenerator(t *testing.T) {
	c, err := parseFlags([]string{"-rows", "64", "-dim", "8", "-int8=false"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := buildGenerator(c, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	dual, ok := gen.(*core.Dual)
	if !ok {
		t.Fatalf("-technique dual built %T", gen)
	}
	if dual.Active(c.threshold) != core.CircuitORAM || dual.Active(c.threshold+1) != core.DHE {
		t.Fatalf("dual threshold %d not honored", c.threshold)
	}

	c.technique = "scanb"
	if gen, err = buildGenerator(c, nil, ""); err != nil || gen.Technique() != core.LinearScanBatched {
		t.Fatalf("-technique scanb built %v (err %v)", gen, err)
	}
	out, err := gen.Generate([]uint64{0, 63})
	if err != nil || out.Rows != 2 || out.Cols != 8 {
		t.Fatalf("scanb generate: %v", err)
	}

	c.technique = "nope"
	if _, err = buildGenerator(c, nil, ""); err == nil {
		t.Fatal("unknown technique must be rejected")
	}
}
