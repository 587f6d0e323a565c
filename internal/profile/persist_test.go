package profile

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"secemb/internal/obs"
	"secemb/internal/tensor"
)

// writeEnvelope writes a file in the envelope by hand, so a test can
// record it under any kind, schema version or fingerprint.
func writeEnvelope(t *testing.T, path string, env envelope, payload any) {
	t.Helper()
	if env.Payload == nil {
		p, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		env.Payload = p
	}
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// loader erases a Format's payload type so one table covers all three.
type loader struct {
	kind string
	good any    // a valid payload
	bad  string // a payload that decodes but fails validation
	load func(path string, reg *obs.Registry) (bool, error)
}

func loaders() []loader {
	return []loader{
		{
			kind: "thresholds",
			good: &DB{Dim: 16, Kind: Varied, Thresholds: map[ExecConfig]int{{Batch: 8, Threads: 1}: 1200}},
			bad:  `{"dim":16,"kind":"Varied","thresholds":{"batch=0,threads=1":5}}`,
			load: func(p string, r *obs.Registry) (bool, error) { _, ok, err := Thresholds.Load(p, r); return ok, err },
		},
		{
			kind: "tune",
			good: tensor.TuneConfig{Workers: 1, BlockRows: 32, InlineRows: 4, Autotuned: true},
			bad:  `{"workers":1,"block_rows":-3,"inline_rows":1}`,
			load: func(p string, r *obs.Registry) (bool, error) { _, ok, err := Tune.Load(p, r); return ok, err },
		},
		{
			kind: "costmodel",
			good: []CostEntry{{Shard: "embed/0", Tech: "scanb", EWMANs: 2e6, EWMABatch: 2}},
			bad:  `[{"shard":"embed/0","tech":"dhe","ewma_ns":0,"ewma_batch":1}]`,
			load: func(p string, r *obs.Registry) (bool, error) { _, ok, err := CostModel.Load(p, r); return ok, err },
		},
	}
}

// TestLoadInstallsSkipsOrRejects drives the one read path: an intact file
// installs; a file differing in any single fingerprint field, the schema
// version or the kind is skipped and counted under the right reason; a
// missing file installs nothing without error; a malformed or
// out-of-range payload is an error.
func TestLoadInstallsSkipsOrRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*envelope, *loader) // nil: the intact file
		raw    string                   // when set, the file's literal contents
		absent bool
		want   string // "installed", "missing", "error" or a skip reason
	}{
		{name: "intact", want: "installed"},
		{name: "gomaxprocs", mutate: func(e *envelope, _ *loader) { e.Fingerprint.GOMAXPROCS += 7 }, want: "fingerprint"},
		{name: "numcpu", mutate: func(e *envelope, _ *loader) { e.Fingerprint.NumCPU += 3 }, want: "fingerprint"},
		{name: "cpu model", mutate: func(e *envelope, _ *loader) { e.Fingerprint.CPUModel += " (another part)" }, want: "fingerprint"},
		{name: "goarch", mutate: func(e *envelope, _ *loader) { e.Fingerprint.GOARCH = "otherarch" }, want: "fingerprint"},
		{name: "go version", mutate: func(e *envelope, _ *loader) { e.Fingerprint.GoVersion = "go1.0" }, want: "fingerprint"},
		{name: "schema", mutate: func(e *envelope, _ *loader) { e.Schema++ }, want: "schema"},
		{name: "kind", mutate: func(e *envelope, _ *loader) { e.Kind += "-other" }, want: "schema"},
		{name: "pre-envelope file", raw: `{"gomaxprocs":2,"numcpu":2,"entries":[]}`, want: "schema"},
		{name: "missing", absent: true, want: "missing"},
		{name: "not json", raw: "not json", want: "error"},
		{name: "payload type", mutate: func(e *envelope, _ *loader) { e.Payload = json.RawMessage("0") }, want: "error"},
		{name: "out of range", mutate: func(e *envelope, l *loader) { e.Payload = json.RawMessage(l.bad) }, want: "error"},
	}
	for _, l := range loaders() {
		for _, c := range cases {
			t.Run(l.kind+"/"+c.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "profile.json")
				switch {
				case c.absent:
				case c.raw != "":
					if err := os.WriteFile(path, []byte(c.raw), 0o644); err != nil {
						t.Fatal(err)
					}
				default:
					env := envelope{Kind: l.kind, Schema: 1, Fingerprint: CurrentFingerprint()}
					if c.mutate != nil {
						c.mutate(&env, &l)
					}
					writeEnvelope(t, path, env, l.good)
				}
				reg := obs.NewRegistry()
				installed, err := l.load(path, reg)
				got := "missing"
				switch {
				case err != nil:
					got = "error"
				case installed:
					got = "installed"
				}
				for _, reason := range []string{"schema", "fingerprint"} {
					if reg.Counter("profile_install_skipped_total", "kind", l.kind, "reason", reason).Value() == 1 {
						if got != "missing" {
							t.Fatalf("counted a %s skip but load returned %s (err %v)", reason, got, err)
						}
						got = reason
					}
				}
				if got != c.want {
					t.Fatalf("got %s (err %v), want %s", got, err, c.want)
				}
			})
		}
	}
}

func TestFingerprintDescribesThisProcess(t *testing.T) {
	fp := CurrentFingerprint()
	if fp.GOMAXPROCS < 1 || fp.NumCPU < 1 || fp.GOARCH == "" || fp.GoVersion == "" {
		t.Fatalf("incomplete fingerprint %+v", fp)
	}
	if fp != CurrentFingerprint() {
		t.Fatal("fingerprint of this process must match itself")
	}
}
