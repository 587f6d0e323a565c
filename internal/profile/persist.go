package profile

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"runtime"
	"strings"
	"sync"

	"secemb/internal/obs"
	"secemb/internal/tensor"
)

// Persistence for every profile artifact. Profiling "is done once per
// system for each embedding dimension" (§IV-C1), and the same holds for
// the kernel tune and the planner's fitted cost model: each one measures
// this machine, is worth reusing across restarts, and means nothing on
// another machine. All three are written in one versioned envelope
//
//	{"kind": "tune", "schema": 1, "fingerprint": {...}, "payload": ...}
//
// and read back through one path that validates the payload and installs
// it only when the kind, the schema version and the machine fingerprint
// all match. A mismatch is not an error (re-profiling is always safe) but
// it is never silent: it is logged and counted in
// profile_install_skipped_total{kind, reason}, reason "schema" when the
// kind or schema version differ and "fingerprint" when the file was
// recorded on another machine. Everything in these files is public:
// thresholds, kernel configs and latency EWMAs are functions of public
// shapes and clocks, never of an id.

// Fingerprint identifies the machine and toolchain a profile was measured
// on. Two fingerprints match only when every field is equal.
type Fingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	CPUModel   string `json:"cpu_model"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
}

// CurrentFingerprint describes the running process.
func CurrentFingerprint() Fingerprint {
	return Fingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo on Linux, and ""
// elsewhere or when the file is unreadable.
var cpuModel = sync.OnceValue(func() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
})

// Format is one kind of persisted profile: the envelope's kind, the schema
// version of its payload, and the check a decoded payload must pass.
type Format[T any] struct {
	kind     string
	schema   int
	validate func(T) error
}

var (
	// Thresholds is the threshold database of Algorithm 2.
	Thresholds = Format[*DB]{kind: "thresholds", schema: 1, validate: validateDB}
	// Tune is the kernel autotuner's winning configuration.
	Tune = Format[tensor.TuneConfig]{kind: "tune", schema: 1, validate: validateTune}
	// CostModel is the planner's fitted per-(shard, technique) EWMAs.
	CostModel = Format[[]CostEntry]{kind: "costmodel", schema: 1, validate: validateCostModel}
)

// envelope is the on-disk form shared by every Format.
type envelope struct {
	Kind        string          `json:"kind"`
	Schema      int             `json:"schema"`
	Fingerprint Fingerprint     `json:"fingerprint"`
	Payload     json.RawMessage `json:"payload"`
}

// skipError marks a well-formed file recorded under another kind, schema
// version or machine: Load skips it instead of failing.
type skipError struct{ reason, detail string }

func (e *skipError) Error() string { return e.detail }

// Save writes v to path in the envelope, stamped with this machine's
// fingerprint.
func (f Format[T]) Save(path string, v T) error {
	data, err := f.encode(CurrentFingerprint(), v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func (f Format[T]) encode(fp Fingerprint, v T) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("profile: encoding %s: %w", f.kind, err)
	}
	data, err := json.MarshalIndent(envelope{Kind: f.kind, Schema: f.schema, Fingerprint: fp, Payload: payload}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("profile: encoding %s: %w", f.kind, err)
	}
	return append(data, '\n'), nil
}

// Load reads a file written by Save. installed reports whether v holds a
// validated payload recorded on this machine. A missing file is not an
// error, nor is a file recorded under another kind, schema version or
// machine: that file is skipped, and the skip is logged and counted in reg
// (which may be nil). A file that does not decode, or whose payload fails
// validation, is an error.
func (f Format[T]) Load(path string, reg *obs.Registry) (v T, installed bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return v, false, nil
	}
	if err != nil {
		return v, false, err
	}
	v, err = f.decode(data, CurrentFingerprint())
	var skip *skipError
	if errors.As(err, &skip) {
		log.Printf("profile: skipping %s file %s: %s", f.kind, path, skip.detail)
		reg.Counter("profile_install_skipped_total", "kind", f.kind, "reason", skip.reason).Inc()
		return v, false, nil
	}
	if err != nil {
		return v, false, fmt.Errorf("profile: %s: %w", path, err)
	}
	return v, true, nil
}

// decode unpacks one envelope and checks it against the running machine's
// fingerprint fp. The payload is validated before the fingerprint is
// compared, so a corrupt file is an error on every machine.
func (f Format[T]) decode(data []byte, fp Fingerprint) (v T, err error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return v, fmt.Errorf("decoding %s file: %w", f.kind, err)
	}
	if env.Kind != f.kind || env.Schema != f.schema {
		return v, &skipError{"schema", fmt.Sprintf("recorded as %q schema %d, want %q schema %d",
			env.Kind, env.Schema, f.kind, f.schema)}
	}
	var p T
	if err := json.Unmarshal(env.Payload, &p); err != nil {
		return v, fmt.Errorf("decoding %s payload: %w", f.kind, err)
	}
	if err := f.validate(p); err != nil {
		return v, fmt.Errorf("%s payload: %w", f.kind, err)
	}
	if env.Fingerprint != fp {
		return v, &skipError{"fingerprint", fmt.Sprintf("machine fingerprint mismatch (recorded %+v, running %+v)",
			env.Fingerprint, fp)}
	}
	return p, nil
}

func validateDB(db *DB) error {
	if db == nil || db.Dim < 1 {
		return errors.New("threshold DB needs a positive dimension")
	}
	for cfg, thr := range db.Thresholds {
		if cfg.Batch < 1 || cfg.Threads < 1 || thr < 0 {
			return fmt.Errorf("threshold %d for %v is out of range", thr, cfg)
		}
	}
	return nil
}

// validateTune accepts what tensor.SetTune installs verbatim: Workers 0
// means "all procs" (the pre-tune default), and the block and inline
// thresholds must be positive.
func validateTune(c tensor.TuneConfig) error {
	if c.Workers < 0 || c.BlockRows < 1 || c.InlineRows < 1 {
		return fmt.Errorf("kernel tune %+v has out-of-range fields", c)
	}
	return nil
}
