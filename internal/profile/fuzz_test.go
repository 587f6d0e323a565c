package profile

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"secemb/internal/tensor"
)

// FuzzLoad: arbitrary bytes never panic the one read path; whatever it
// installs, for every format, is in range, and re-encodes to a file that
// decodes to the same payload.
func FuzzLoad(f *testing.F) {
	fp := CurrentFingerprint()
	for _, seed := range [][]byte{
		mustEncode(f, Thresholds, fp, &DB{Dim: 16, Kind: Varied, Thresholds: map[ExecConfig]int{{Batch: 8, Threads: 1}: 1200}}),
		mustEncode(f, Tune, fp, tensor.TuneConfig{Workers: 2, BlockRows: 32, InlineRows: 4, Autotuned: true, ProbeNs: 9}),
		mustEncode(f, CostModel, fp, []CostEntry{{Shard: "embed/0", Tech: "dhe", EWMANs: 9e6, EWMABatch: 256}}),
		[]byte(`{"kind":"tune","schema":1,"payload":{"workers":-1,"block_rows":-8,"inline_rows":0}}`),
		[]byte(`{"kind":"costmodel","schema":1,"payload":[{"tech":"dhe","ewma_ns":1e400,"ewma_batch":1}]}`),
		[]byte(`{"kind":"thresholds","schema":1,"payload":null}`),
		[]byte(`not json`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode against the file's own fingerprint too, so inputs reach
		// payload validation rather than stopping at the machine check.
		fps := []Fingerprint{fp}
		var env envelope
		if json.Unmarshal(data, &env) == nil {
			fps = append(fps, env.Fingerprint)
		}
		for _, fp := range fps {
			checkInstalled(t, Thresholds, data, fp, func(db *DB) bool {
				for cfg, thr := range db.Thresholds {
					if cfg.Batch < 1 || cfg.Threads < 1 || thr < 0 {
						return false
					}
				}
				return db.Dim >= 1
			})
			checkInstalled(t, Tune, data, fp, func(c tensor.TuneConfig) bool {
				return c.Workers >= 0 && c.BlockRows >= 1 && c.InlineRows >= 1
			})
			checkInstalled(t, CostModel, data, fp, func(entries []CostEntry) bool {
				for _, e := range entries {
					if e.Tech == "" || !finite(e.EWMANs) || !finite(e.EWMABatch) || e.EWMANs <= 0 || e.EWMABatch < 0 {
						return false
					}
				}
				return true
			})
		}
	})
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func mustEncode[T any](f *testing.F, format Format[T], fp Fingerprint, v T) []byte {
	data, err := format.encode(fp, v)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// checkInstalled decodes data as format and, when that installs a payload,
// checks it with inRange and round-trips it.
func checkInstalled[T any](t *testing.T, format Format[T], data []byte, fp Fingerprint, inRange func(T) bool) {
	v, err := format.decode(data, fp)
	if err != nil {
		return
	}
	if !inRange(v) {
		t.Fatalf("%s: installed an out-of-range payload %+v", format.kind, v)
	}
	again, err := format.encode(fp, v)
	if err != nil {
		t.Fatalf("%s: re-encode: %v", format.kind, err)
	}
	back, err := format.decode(again, fp)
	if err != nil {
		t.Fatalf("%s: re-decode: %v", format.kind, err)
	}
	if !reflect.DeepEqual(back, v) {
		t.Fatalf("%s: round trip changed the payload: %+v -> %+v", format.kind, v, back)
	}
}
