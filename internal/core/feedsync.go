package core

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/jcf"
	"repro/internal/oms"
)

// Coupling synchronization.
//
// JCF's interfaces are closed (section 2.4): the coupling layer cannot
// hook the master's internals, and a checkin that reaches the master
// without going through the encapsulation wrappers (a designer driving
// the JCF desktop directly) never reaches the FMCAD library on its own.
// The coupling keeps no copy of the master's state to find such
// checkins or to check the mapping with: VerifyMapping and SyncLibrary
// read the bindings and the design object versions from the master's
// store on every call, so a reloaded hybrid or one attached to a
// replica view answers exactly as the store does.

// SyncLibrary imports master-side checkins the slave library has not
// seen — design data that entered the OMS database directly through the
// JCF desktop rather than through an encapsulated tool run — as fresh,
// PropJCFVersion-tagged cellview versions, keeping the library
// browsable by native FMCAD tools. It returns how many versions were
// imported.
//
// It reconciles by scan: for each bound design object, every master
// version that no slave version of its cellview carries as its
// PropJCFVersion tag is imported. It holds captureMu exclusively, so no
// tool run is between its slave checkin and its tag write meanwhile. It
// stops at the first failure; the next run scans again.
func (h *Hybrid) SyncLibrary() (int, error) {
	h.captureMu.Lock()
	defer h.captureMu.Unlock()
	imported := 0
	for _, cv := range h.JCF.BoundCellVersions() {
		b, err := h.BindingFor(cv)
		if err != nil {
			return imported, err
		}
		views := make([]string, 0, len(b.DesignObjects))
		for view := range b.DesignObjects {
			views = append(views, view)
		}
		sort.Strings(views)
		for _, view := range views {
			dovs := h.JCF.DesignObjectVersions(b.DesignObjects[view])
			if len(dovs) == 0 {
				continue
			}
			tags, err := h.slaveTags(b.FMCADCell, view)
			if err != nil {
				return imported, err
			}
			for _, dov := range dovs {
				if tags[fmt.Sprint(dov)] {
					continue
				}
				if err := h.importVersion(b.FMCADCell, view, dov); err != nil {
					return imported, err
				}
				imported++
			}
		}
	}
	return imported, nil
}

// slaveTags returns the PropJCFVersion tags the versions of a slave
// cellview carry.
func (h *Hybrid) slaveTags(cell, view string) (map[string]bool, error) {
	versions, err := h.Lib.Versions(cell, view)
	if err != nil {
		return nil, fmt.Errorf("core: sync library: %w", err)
	}
	tags := map[string]bool{}
	for _, v := range versions {
		tag, ok, err := h.Lib.GetProperty(cell, view, v, PropJCFVersion)
		if err != nil {
			return nil, fmt.Errorf("core: sync library: %w", err)
		}
		if ok {
			tags[tag] = true
		}
	}
	return tags, nil
}

// importVersion stages one master version and checks it into the slave
// cellview, tagged with the version. A version checked in but left
// untagged by a failed SetProperty is reported; the next SyncLibrary
// imports it again, and SlaveSyncCheck finds the untagged one.
func (h *Hybrid) importVersion(cell, view string, dov oms.OID) error {
	staged := h.stagePath("library-sync", cell+"."+view)
	if err := h.JCF.ExportVersionData(dov, staged); err != nil {
		return fmt.Errorf("core: sync library: %w", err)
	}
	data, err := os.ReadFile(staged)
	if err != nil {
		return fmt.Errorf("core: sync library: %w", err)
	}
	session := h.Lib.NewSession("library-sync")
	wf, err := session.Checkout(cell, view)
	if err != nil {
		return fmt.Errorf("core: sync library: %w", err)
	}
	if err := os.WriteFile(wf.Path, data, 0o644); err != nil {
		return abortSlave(session, wf, fmt.Errorf("core: sync library: %w", err))
	}
	slaveV, err := session.Checkin(wf)
	if err != nil {
		// Release the cellview lock the checkout took, or every later
		// retry (and every encapsulated run on this cellview) would
		// fail its checkout against a lock nobody holds anymore.
		return abortSlave(session, wf, fmt.Errorf("core: sync library: %w", err))
	}
	if err := h.Lib.SetProperty(cell, view, slaveV, PropJCFVersion, fmt.Sprint(dov)); err != nil {
		return fmt.Errorf("core: sync library: version %d imported but untagged: %w", slaveV, err)
	}
	return nil
}

// VerifyMapping checks every binding in the master's store against
// Table 1 and returns the problems found, sorted. Slave-side drift
// inside a cellview (a version created behind the master) is
// SlaveSyncCheck's audit.
func (h *Hybrid) VerifyMapping() []string {
	var problems []string
	for _, cv := range h.JCF.BoundCellVersions() {
		b, err := h.BindingFor(cv)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		problems = append(problems, h.verifyBinding(b)...)
	}
	sort.Strings(problems)
	return problems
}

// verifyBinding checks one binding against Table 1: the inverse map
// must round-trip, and the slave cell's cellviews must match the design
// objects' view types.
func (h *Hybrid) verifyBinding(b Binding) []string {
	var problems []string
	if cv, err := h.CellVersionFor(b.FMCADCell); err != nil {
		problems = append(problems, fmt.Sprintf("inverse mapping broken for %s: %v", b.FMCADCell, err))
	} else if cv != b.CellVersion {
		problems = append(problems, fmt.Sprintf("inverse mapping broken for %s: resolves to cell version %d, want %d", b.FMCADCell, cv, b.CellVersion))
	}
	views, err := h.Lib.Cellviews(b.FMCADCell)
	if err != nil {
		return append(problems, fmt.Sprintf("slave cell %s missing: %v", b.FMCADCell, err))
	}
	viewSet := map[string]bool{}
	for _, v := range views {
		viewSet[v] = true
	}
	for view, do := range b.DesignObjects {
		if !viewSet[view] {
			problems = append(problems, fmt.Sprintf("slave cell %s lacks cellview %s", b.FMCADCell, view))
		}
		if got, err := h.JCF.ViewTypeOf(do); err != nil {
			problems = append(problems, fmt.Sprintf("design object %d has no view type: %v", do, err))
		} else if got != view {
			problems = append(problems, fmt.Sprintf("design object %d has view type %q, want %q", do, got, view))
		}
	}
	return problems
}

// StartToolNotifications bridges the master's change feed onto the
// hybrid's ITC bus (jcf.Topic* messages), so the integrated tools hear
// about checkins, publications, reservations and variant derivations in
// commit order — the notification path the closed JCF interfaces never
// offered. The caller stops the returned notifier when done.
func (h *Hybrid) StartToolNotifications() (*jcf.Notifier, error) {
	return h.JCF.StartNotifier(h.Bus)
}
