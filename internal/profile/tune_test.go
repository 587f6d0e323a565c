package profile

import (
	"flag"
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"secemb/internal/obs"
	"secemb/internal/tensor"
)

func TestTuneRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.json")
	orig := tensor.CurrentTune()
	defer tensor.SetTune(orig)

	want := tensor.TuneConfig{Workers: 1, BlockRows: 32, InlineRows: 4, Autotuned: true, ProbeNs: 123}
	if err := Tune.Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, installed, err := Tune.Load(path, nil)
	if err != nil || !installed {
		t.Fatalf("load: installed=%v err=%v", installed, err)
	}
	if got != want {
		t.Fatalf("round trip lost fields: %+v, want %+v", got, want)
	}

	// Startup on the same machine installs the file instead of probing.
	tensor.SetTune(tensor.TuneConfig{})
	if err := Autotune(false).SetupTuning(path, nil, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := tensor.CurrentTune(); got.BlockRows != 32 || got.InlineRows != 4 {
		t.Fatalf("startup did not install the file: %+v", got)
	}
}

func TestTuneFingerprintMismatchSkipsInstall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.json")
	orig := tensor.CurrentTune()
	defer tensor.SetTune(orig)

	fp := CurrentFingerprint()
	fp.GOMAXPROCS = runtime.GOMAXPROCS(0) + 7 // recorded on "other" hardware
	writeEnvelope(t, path, envelope{Kind: "tune", Schema: 1, Fingerprint: fp},
		tensor.TuneConfig{Workers: 1, BlockRows: 32, InlineRows: 4})
	sentinel := tensor.TuneConfig{Workers: 1, BlockRows: 99, InlineRows: 1}
	tensor.SetTune(sentinel)
	reg := obs.NewRegistry()
	if err := Autotune(false).SetupTuning(path, reg, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := tensor.CurrentTune(); got.BlockRows != 99 {
		t.Fatalf("mismatch overwrote the installed config: %+v", got)
	}
	if got := reg.Counter("profile_install_skipped_total", "kind", "tune", "reason", "fingerprint").Value(); got != 1 {
		t.Fatalf("profile_install_skipped_total{kind=tune} = %d, want 1", got)
	}
}

func TestTuneMissingFileIsNotError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.json")
	if _, installed, err := Tune.Load(path, nil); err != nil || installed {
		t.Fatalf("missing file: installed=%v err=%v", installed, err)
	}
	if err := Autotune(false).SetupTuning(path, nil, io.Discard); err != nil {
		t.Fatalf("startup with a missing tune file and -autotune off: %v", err)
	}
}

func TestTuneRejectsCorruptFields(t *testing.T) {
	fp := CurrentFingerprint()
	zeroed, err := Tune.encode(fp, tensor.TuneConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Tune.decode(zeroed, fp); err == nil {
		t.Fatal("zeroed tune must be rejected")
	}
	if _, err := Tune.decode([]byte(`not json`), fp); err == nil {
		t.Fatal("garbage must be rejected")
	}
}

func TestAutotuneFlag(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	a := Autotune(true)
	fs.Var(&a, "autotune", "")
	if err := fs.Parse([]string{"-autotune", "off"}); err != nil || a {
		t.Fatalf("-autotune off: value %v err %v", a, err)
	}
	if err := fs.Parse([]string{"-autotune", "on"}); err != nil || !a || a.String() != "on" {
		t.Fatalf("-autotune on: value %v err %v", a, err)
	}
	if err := fs.Parse([]string{"-autotune", "maybe"}); err == nil {
		t.Fatal("-autotune maybe must fail flag parsing")
	}
}
