package profile

import (
	"path/filepath"
	"runtime"
	"testing"

	"secemb/internal/obs"
)

func sampleModel() []CostEntry {
	return []CostEntry{
		{Shard: "embed/0", Tech: "scanb", EWMANs: 2e6, EWMABatch: 2},
		{Shard: "embed/1", Tech: "dhe", EWMANs: 9e6, EWMABatch: 256},
	}
}

func TestCostModelRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := CostModel.Save(path, sampleModel()); err != nil {
		t.Fatal(err)
	}
	got, installed, err := CostModel.Load(path, nil)
	if err != nil || !installed {
		t.Fatalf("load: installed=%v err=%v", installed, err)
	}
	if len(got) != 2 || got[0].Shard != "embed/0" || got[1].EWMABatch != 256 {
		t.Fatalf("round trip lost entries: %+v", got)
	}
}

func TestCostModelFingerprintMismatchSkips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	fp := CurrentFingerprint()
	fp.NumCPU = runtime.NumCPU() + 3 // recorded on "other" hardware
	writeEnvelope(t, path, envelope{Kind: "costmodel", Schema: 1, Fingerprint: fp}, sampleModel())
	reg := obs.NewRegistry()
	got, installed, err := CostModel.Load(path, reg)
	if err != nil {
		t.Fatal(err)
	}
	if installed || len(got) != 0 {
		t.Fatalf("mismatched fingerprint must not install: installed=%v entries=%+v", installed, got)
	}
	if n := reg.Counter("profile_install_skipped_total", "kind", "costmodel", "reason", "fingerprint").Value(); n != 1 {
		t.Fatalf("profile_install_skipped_total{kind=costmodel} = %d, want 1", n)
	}
}

func TestCostModelMissingFileIsNotError(t *testing.T) {
	_, installed, err := CostModel.Load(filepath.Join(t.TempDir(), "absent.json"), nil)
	if err != nil || installed {
		t.Fatalf("missing file: installed=%v err=%v", installed, err)
	}
}

func TestCostModelRejectsCorruptEntries(t *testing.T) {
	fp := CurrentFingerprint()
	cases := [][]CostEntry{
		{{Shard: "t/0", Tech: "", EWMANs: 1, EWMABatch: 1}},
		{{Shard: "t/0", Tech: "dhe", EWMANs: 0, EWMABatch: 1}},
		{{Shard: "t/0", Tech: "dhe", EWMANs: -5, EWMABatch: 1}},
		{{Shard: "t/0", Tech: "dhe", EWMANs: 1, EWMABatch: -1}},
	}
	for _, c := range cases {
		data, err := CostModel.encode(fp, c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CostModel.decode(data, fp); err == nil {
			t.Errorf("accepted corrupt cost model %+v", c)
		}
	}
	if _, err := CostModel.decode([]byte(`not json`), fp); err == nil {
		t.Error("accepted garbage")
	}
}
