package core

import (
	"fmt"
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
// JCF desktop rather than through an encapsulated tool run, or a tool
// run's version whose slave checkin failed after the master committed —
// as fresh, PropJCFVersion-tagged cellview versions, keeping the library
// browsable by native FMCAD tools. It returns how many versions were
// imported.
//
// It reconciles by scan: for each bound design object, every master
// version that no slave version of its cellview carries as its
// PropJCFVersion tag is imported. It holds captureMu exclusively, so no
// tool run is between its master checkin and its tagged slave checkin
// meanwhile. It stops at the first failure; the next run scans again.
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
					return imported, fmt.Errorf("core: sync library: %w", err)
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

// importVersion checks one master version into the slave cellview through
// capture: the version is exported straight into the checked-out working
// copy, and the checkin carries its tag.
func (h *Hybrid) importVersion(cell, view string, dov oms.OID) error {
	session, wf, err := h.checkoutSlave("library-sync", cell, view)
	if err != nil {
		return err
	}
	_, _, err = capture(session, wf, func() (oms.OID, error) {
		return dov, h.JCF.ExportVersionData(dov, wf.Path)
	})
	return err
}

// VerifyMapping checks every binding in the master's store against
// Table 1 and returns the problems found, sorted. Slave-side drift
// inside a cellview (a version created behind the master) is
// SlaveSyncCheck's audit. It reads each binding once: the inverse map is
// built from the bindings themselves, so the check is linear in them.
func (h *Hybrid) VerifyMapping() []string {
	var problems []string
	var bindings []Binding
	boundTo := map[string][]oms.OID{} // slave cell -> cell versions bound to it
	for _, cv := range h.JCF.BoundCellVersions() {
		b, err := h.BindingFor(cv)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		bindings = append(bindings, b)
		boundTo[b.FMCADCell] = append(boundTo[b.FMCADCell], cv)
	}
	for _, b := range bindings {
		if cvs := boundTo[b.FMCADCell]; len(cvs) != 1 {
			problems = append(problems, fmt.Sprintf("inverse mapping broken for %s: bound to cell versions %v", b.FMCADCell, cvs))
		}
		problems = append(problems, h.verifyBinding(b)...)
	}
	sort.Strings(problems)
	return problems
}

// verifyBinding checks one binding's slave side against Table 1: the
// slave cell's cellviews must match the design objects' view types.
func (h *Hybrid) verifyBinding(b Binding) []string {
	views, err := h.Lib.Cellviews(b.FMCADCell)
	if err != nil {
		return []string{fmt.Sprintf("slave cell %s missing: %v", b.FMCADCell, err)}
	}
	viewSet := map[string]bool{}
	for _, v := range views {
		viewSet[v] = true
	}
	var problems []string
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
