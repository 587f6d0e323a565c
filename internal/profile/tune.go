package profile

import (
	"errors"
	"fmt"
	"io"

	"secemb/internal/obs"
	"secemb/internal/tensor"
)

// Startup kernel tuning, shared by every command. Like the threshold DB,
// the autotune search runs once per machine: the chosen block/worker
// configuration depends on core count and cache geometry, not on the model
// or any secret, so a deployment can pin a tuned config to disk (the Tune
// format) and skip the probe on later runs. The probe measures public
// architecture shapes only.

// Autotune is the -autotune flag value: "on" probes the matmul kernel
// configs at startup, "off" keeps the installed (static default) config.
// It implements flag.Value, so any other value fails flag parsing.
type Autotune bool

func (a Autotune) String() string {
	if a {
		return "on"
	}
	return "off"
}

// Set parses "on" or "off".
func (a *Autotune) Set(s string) error {
	switch s {
	case "on", "off":
		*a = s == "on"
		return nil
	}
	return errors.New("must be on or off")
}

// SetupTuning installs the kernel config a command starts with. A tune
// file at path recorded on this machine wins; otherwise, when a is on, the
// startup probe runs and, when path is given, its winner is saved there
// for the next start. An empty path skips the file entirely. Progress
// lines go to out; a skipped file is counted in reg (which may be nil).
func (a Autotune) SetupTuning(path string, reg *obs.Registry, out io.Writer) error {
	if path != "" {
		tc, installed, err := Tune.Load(path, reg)
		if err != nil {
			return err
		}
		if installed {
			tensor.SetTune(tc)
			fmt.Fprintf(out, "kernel config loaded from %s: %+v\n", path, tensor.CurrentTune())
			return nil
		}
	}
	if !a {
		return nil
	}
	tc := tensor.Autotune()
	fmt.Fprintf(out, "kernel autotune: %+v\n", tc)
	if path == "" {
		return nil
	}
	return Tune.Save(path, tc)
}
