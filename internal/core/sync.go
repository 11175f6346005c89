package core

import (
	"fmt"
	"sort"
)

// Master/slave synchronization audit. The encapsulation tags every slave
// cellview version it creates with the JCF design object version
// (PropJCFVersion), in the checkin that creates it, and only after the
// master committed that version (see capture). A version without the
// tag was created behind the master's back — exactly what the locked
// data-management menus prevent (section 2.4: "lock menu points in order
// to prevent data inconsistency"). SlaveSyncCheck is the audit that quantifies the damage
// when the locks are disabled; the A1 ablation uses it.

// SyncProblem describes one slave-side version the master does not know.
type SyncProblem struct {
	Cell    string
	View    string
	Version int
}

func (p SyncProblem) String() string {
	return fmt.Sprintf("%s/%s v%d has no JCF version tag (created behind the master)", p.Cell, p.View, p.Version)
}

// SlaveSyncCheck scans every bound slave cell for cellview versions that
// carry no PropJCFVersion tag. Version 1 of each cellview is the empty
// seed the binding itself creates and is exempt.
func (h *Hybrid) SlaveSyncCheck() ([]SyncProblem, error) {
	var problems []SyncProblem
	for _, cell := range h.Bindings() {
		views, err := h.Lib.Cellviews(cell)
		if err != nil {
			return nil, err
		}
		for _, view := range views {
			versions, err := h.Lib.Versions(cell, view)
			if err != nil {
				return nil, err
			}
			for _, v := range versions {
				if v == 1 {
					continue // the empty seed version
				}
				_, tagged, err := h.Lib.GetProperty(cell, view, v, PropJCFVersion)
				if err != nil {
					return nil, err
				}
				if !tagged {
					problems = append(problems, SyncProblem{Cell: cell, View: view, Version: v})
				}
			}
		}
	}
	sort.Slice(problems, func(i, j int) bool {
		a, b := problems[i], problems[j]
		if a.Cell != b.Cell {
			return a.Cell < b.Cell
		}
		if a.View != b.View {
			return a.View < b.View
		}
		return a.Version < b.Version
	})
	return problems, nil
}

// UnlockNativeMenus removes the encapsulation's menu locks — the ablation
// switch. With the locks gone, designers can drive the slave's own
// checkin/checkout and desynchronize the frameworks; SlaveSyncCheck then
// finds the untracked versions.
func (h *Hybrid) UnlockNativeMenus() {
	for _, menu := range lockedMenus {
		h.Hooks.Unlock(menu)
	}
}
