package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fmcad"
	"repro/internal/jcf"
)

// Hybrid persistence: the slave library is inherently persistent (a
// directory with .meta), and the master saves itself via
// jcf.Framework.Save. The coupling's own state, the Table 1 bindings, is
// part of the master's store (jcf.Framework.BindSlaveCell), so the
// master's commit is the hybrid's only commit point. Save/LoadHybrid make
// the whole coupled environment restartable.
//
// Layout under the hybrid directory (the same dir given to NewHybrid):
//
//	library/      the FMCAD slave (already on disk)
//	stage/        staging area (transient, not preserved)
//	master/       the JCF framework state, bindings included: a
//	              segment log (see jcf.Framework.Save)
//
// FML customization (menu locks, triggers) is code, not data: LoadHybrid
// reinstalls the standard script, and callers re-run their own policy
// scripts, exactly as the original tools re-sourced their customization at
// startup. Session state (flow enactments, FML counters, Overrides)
// starts afresh.

// ErrOldHybridFormat is returned by LoadHybrid for a directory that holds
// hybrid.json, the bindings file of an older format that kept the
// bindings outside the master's store. This release does not read it.
var ErrOldHybridFormat = errors.New("core: hybrid directory holds bindings in hybrid.json, an older format this release does not read")

// Save commits the hybrid into its directory: one master save, alongside
// the already-persistent slave library.
func (h *Hybrid) Save(dir string) error {
	return h.JCF.Save(filepath.Join(dir, "master"))
}

// LoadHybrid restores a hybrid saved by Save from its directory: reopens
// the slave library, reloads the master, whose store holds the bindings,
// and reinstalls the FML customization.
func LoadHybrid(dir string) (*Hybrid, error) {
	old := filepath.Join(dir, "hybrid.json")
	if _, err := os.Stat(old); err == nil {
		return nil, fmt.Errorf("%w: %s", ErrOldHybridFormat, old)
	}
	fw, err := jcf.Load(filepath.Join(dir, "master"))
	if err != nil {
		return nil, err
	}
	lib, err := fmcad.Open(filepath.Join(dir, "library"))
	if err != nil {
		return nil, err
	}
	return attach(fw, lib, dir)
}
