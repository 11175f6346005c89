package jcf

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/flow"
	"repro/internal/oms"
	"repro/internal/otod"
)

// otodRel builds the relationship key used to resolve schema names.
func otodRel(name, from, to string) otod.Relationship {
	return otod.Relationship{Name: name, From: from, To: to}
}

// Activity execution: each cell version enacts its attached flow. The
// designer must hold the workspace reservation, and the flow order is
// enforced — "the speciﬁed order in which tools can be executed is
// prescribed and ﬁxed for the designer" (section 3.5).

// enactment returns (creating lazily) the flow enactment of a cell
// version. Enactments are per-process session state, so a replica view,
// which must not grow state of its own, refuses with ErrReadOnlyReplica
// before the cache is touched.
func (fw *Framework) enactment(cv oms.OID) (*flow.Enactment, error) {
	if err := fw.guardWrite(); err != nil {
		return nil, err
	}
	fw.mu.RLock()
	if e, ok := fw.enactments[cv]; ok {
		fw.mu.RUnlock()
		return e, nil
	}
	fw.mu.RUnlock()

	name, err := fw.AttachedFlowName(cv)
	if err != nil {
		return nil, err
	}
	f, err := fw.Flow(name)
	if err != nil {
		return nil, err
	}
	e, err := flow.NewEnactment(f)
	if err != nil {
		return nil, err
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if existing, ok := fw.enactments[cv]; ok {
		return existing, nil // lost a benign race
	}
	fw.enactments[cv] = e
	return e, nil
}

// StartActivity begins the named flow activity on a cell version. The user
// must hold the workspace reservation and the flow order must allow it.
// Each successful start materializes an ActiveExecVersion object in the
// database (Figure 1, Variants region), so the execution history is
// queryable metadata.
func (fw *Framework) StartActivity(user string, cv oms.OID, activity string) error {
	if err := fw.guardWrite(); err != nil {
		return err
	}
	if err := fw.requireReservation(user, cv); err != nil {
		return err
	}
	e, err := fw.enactment(cv)
	if err != nil {
		return err
	}
	if err := e.Start(activity); err != nil {
		return err
	}
	if err := fw.recordExec(cv, activity, "running:"+user); err != nil {
		// Surface the bookkeeping failure WITHOUT leaving the enactment
		// claiming an activity the caller was told did not start: mark
		// the start failed, which the flow engine treats as retryable.
		// If even that abort fails, the enactment still claims a running
		// activity — join both errors so the designer sees the whole
		// state instead of only the bookkeeping half.
		if ferr := e.Finish(activity, false); ferr != nil {
			return errors.Join(err, fmt.Errorf("jcf: aborting activity %q after bookkeeping failure: %w", activity, ferr))
		}
		return err
	}
	return nil
}

// recordExec creates the ActiveExecVersion object for an activity
// start/finish. Object and activeExec link commit as one batch, so a
// failed link can no longer strand a detached ActiveExecVersion — and
// the error is surfaced to the designer instead of being discarded (the
// old path silently dropped the link error, leaving execution history
// that CheckConsistency could never reach). A cell version without
// variants records nothing (the enactment stays authoritative).
func (fw *Framework) recordExec(cv oms.OID, activity, state string) error {
	variants := fw.Variants(cv)
	if len(variants) == 0 {
		return nil
	}
	return fw.recordExecOn(variants[len(variants)-1], activity, state)
}

// recordExecOn is recordExec's batched body, keyed by the variant the
// execution entry attaches to.
func (fw *Framework) recordExecOn(variant oms.OID, activity, state string) error {
	b := fw.getBatch()
	defer fw.putBatch(b)
	exec := b.CreateOwned("ActiveExecVersion", map[string]oms.Value{
		"state": oms.S(activity + "/" + state),
	})
	rel := fw.model.SchemaRelName(otodRel("activeExec", "Variant", "ActiveExecVersion"))
	b.Link(rel, variant, exec)
	if _, err := fw.store.Apply(b); err != nil {
		return fmt.Errorf("jcf: recording activity execution: %w", err)
	}
	return nil
}

// FinishActivity completes a running activity (ok=false marks it failed,
// allowing a retry). The outcome is recorded as another execution entry.
// A returned error from the recording step means the activity DID
// finish in the flow engine but its history entry is missing — the
// enactment stays authoritative; only the queryable metadata is short
// one entry.
func (fw *Framework) FinishActivity(user string, cv oms.OID, activity string, ok bool) error {
	if err := fw.guardWrite(); err != nil {
		return err
	}
	if err := fw.requireReservation(user, cv); err != nil {
		return err
	}
	e, err := fw.enactment(cv)
	if err != nil {
		return err
	}
	if err := e.Finish(activity, ok); err != nil {
		return err
	}
	outcome := "done"
	if !ok {
		outcome = "failed"
	}
	return fw.recordExec(cv, activity, outcome)
}

// ExecutionHistory returns the recorded activity-execution entries of a
// cell version (across all its variants), in creation order. Entries look
// like "simulate/running:anna" or "simulate/done".
func (fw *Framework) ExecutionHistory(cv oms.OID) []string {
	rel := fw.model.SchemaRelName(otodRel("activeExec", "Variant", "ActiveExecVersion"))
	var execs []oms.OID
	for _, v := range fw.Variants(cv) {
		execs = append(execs, fw.store.Targets(rel, v)...)
	}
	sort.Slice(execs, func(i, j int) bool { return execs[i] < execs[j] })
	out := make([]string, 0, len(execs))
	for _, e := range execs {
		out = append(out, fw.store.GetString(e, "state"))
	}
	return out
}

// ActivityState returns the state of a flow activity on a cell version.
// This and the three flow-state queries below build the enactment cache
// lazily, so on a replica view they fail with ErrReadOnlyReplica.
func (fw *Framework) ActivityState(cv oms.OID, activity string) (flow.State, error) {
	e, err := fw.enactment(cv)
	if err != nil {
		return flow.NotRun, err
	}
	return e.State(activity)
}

// StartableActivities returns which activities the flow permits next.
func (fw *Framework) StartableActivities(cv oms.OID) ([]string, error) {
	e, err := fw.enactment(cv)
	if err != nil {
		return nil, err
	}
	return e.Startable(), nil
}

// FlowComplete reports whether every activity of the cell version's flow
// is done.
func (fw *Framework) FlowComplete(cv oms.OID) (bool, error) {
	e, err := fw.enactment(cv)
	if err != nil {
		return false, err
	}
	return e.Complete(), nil
}

// FlowRejections returns how many out-of-order Start attempts the flow
// enforcement refused on this cell version.
func (fw *Framework) FlowRejections(cv oms.OID) (int, error) {
	e, err := fw.enactment(cv)
	if err != nil {
		return 0, err
	}
	return e.Rejected(), nil
}

// DesktopSummary renders a human-readable desktop listing of a project:
// cells, versions, reservations, flow states. It is what the jcfdesk CLI
// shows.
func (fw *Framework) DesktopSummary(project oms.OID) (string, error) {
	name := fw.store.GetString(project, "name")
	if name == "" {
		return "", fmt.Errorf("%w: project %d", ErrNotFound, project)
	}
	out := fmt.Sprintf("Project %s (JCF %s)\n", name, fw.release)
	cells := fw.store.Targets(fw.rel.has, project)
	sort.Slice(cells, func(i, j int) bool {
		return fw.store.GetString(cells[i], "name") < fw.store.GetString(cells[j], "name")
	})
	for _, cell := range cells {
		out += fmt.Sprintf("  cell %s\n", fw.store.GetString(cell, "name"))
		for _, cv := range fw.CellVersions(cell) {
			status := "free"
			if holder, held := fw.ReservedBy(cv); held {
				status = "reserved by " + holder
			}
			pub := ""
			if fw.Published(cv) {
				pub = ", published"
			}
			flowName, _ := fw.AttachedFlowName(cv)
			out += fmt.Sprintf("    v%d (flow %s, %s%s)\n", fw.CellVersionNum(cv), flowName, status, pub)
			for _, v := range fw.Variants(cv) {
				out += fmt.Sprintf("      variant %d: %d design objects\n",
					fw.VariantNum(v), len(fw.DesignObjects(v)))
			}
		}
	}
	return out, nil
}
