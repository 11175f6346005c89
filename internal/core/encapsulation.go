package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/flow"
	"repro/internal/fmcad"
	"repro/internal/fml"
	"repro/internal/jcf"
	"repro/internal/oms"
	"repro/internal/tools/dsim"
	"repro/internal/tools/layout"
	"repro/internal/tools/schematic"
)

// Encapsulation wrappers (section 2.4): "Since each tool is modelled by
// one JCF activity, JCF records all derivation relationships between
// schematic and layout versions." Each Run* method executes one FMCAD tool
// under JCF control:
//
//  1. fire the pre-activity trigger (FML scripts may veto),
//  2. start the JCF activity (workspace + flow enforcement),
//  3. copy the needed design data OUT of the OMS database to a staging
//     file (a full copy even for read-only input — the section 3.6 cost),
//  4. check out the slave cellview, run the tool on the working copy,
//     check the result back in (the slave library stays in sync so native
//     FMCAD tools could still browse it),
//  5. copy the result INTO the OMS database as a new design object
//     version, record the derivation, tag the slave version with the JCF
//     version (PropJCFVersion),
//  6. finish the activity and fire the post-activity trigger.
//
// RunOpts.Force reproduces the paper's wrapper feature that "enabled
// activity execution when its predecessor was not yet finished and
// guaranteed consistency by additional windows": a forced run bypasses the
// flow-order check but pops a consistency window (an FML trigger) and is
// counted in Overrides.

// RunOpts modifies how an encapsulated tool run executes.
type RunOpts struct {
	// Force permits execution although flow predecessors are unfinished;
	// the consistency window fires instead of the order check.
	Force bool
}

// RunResult reports what one encapsulated tool run produced.
type RunResult struct {
	Activity string
	// InputDOV is the design object version consumed (InvalidOID for
	// entry tools).
	InputDOV oms.OID
	// OutputDOV is the design object version created in the JCF database.
	OutputDOV oms.OID
	// SlaveVersion is the FMCAD cellview version created in the library.
	SlaveVersion int
	// Forced reports that the run went through the consistency window.
	Forced bool
}

// stagePath builds a per-user staging file path.
func (h *Hybrid) stagePath(user, name string) string {
	return filepath.Join(h.stage, user, name)
}

// beginActivity runs steps 1-2; it reports whether the run is forced.
func (h *Hybrid) beginActivity(user string, cv oms.OID, activity string, opts RunOpts) (forced bool, err error) {
	if err := h.Hooks.Fire("preActivity", fml.Str(activity)); err != nil {
		return false, fmt.Errorf("core: pre-activity veto: %w", err)
	}
	err = h.JCF.StartActivity(user, cv, activity)
	if err == nil {
		return false, nil
	}
	if opts.Force && errors.Is(err, flow.ErrOrder) {
		// The wrapper path: consistency window instead of refusal.
		if werr := h.Hooks.Fire("consistency-window", fml.Str(activity)); werr != nil {
			return false, fmt.Errorf("core: consistency window veto: %w", werr)
		}
		h.overrides.Add(1)
		return true, nil
	}
	return false, err
}

// endActivity runs step 6 for non-forced runs.
func (h *Hybrid) endActivity(user string, cv oms.OID, activity string, forced, ok bool) {
	if !forced {
		// A failed Finish here means the activity never started; nothing
		// to clean up.
		_ = h.JCF.FinishActivity(user, cv, activity, ok) //lint:allow noerrdrop a failed Finish means the activity never started; nothing to clean up
	}
	// A post-activity veto cannot un-run the tool; firing is best-effort.
	_ = h.Hooks.Fire("postActivity", fml.Str(activity)) //lint:allow noerrdrop post-activity hooks cannot veto a run that already happened
}

// abortSlave abandons the slave working copy after a failed run step and
// returns the step's error. A cancel failure matters — it leaves the
// cellview lock held, blocking every later checkout — so it is joined
// after the primary error instead of being discarded.
func abortSlave(session *fmcad.Session, wf *fmcad.Workfile, err error) error {
	if cerr := session.Cancel(wf); cerr != nil {
		return errors.Join(err, fmt.Errorf("core: canceling slave checkout: %w", cerr))
	}
	return err
}

// checkoutSlave acquires the slave cellview for the tool run.
func (h *Hybrid) checkoutSlave(user, fmcadCell, view string) (*fmcad.Session, *fmcad.Workfile, error) {
	session := h.Lib.NewSession(user)
	wf, err := session.Checkout(fmcadCell, view)
	if err != nil {
		return nil, nil, fmt.Errorf("core: slave checkout: %w", err)
	}
	return session, wf, nil
}

// captureResult runs step 5: slave checkin, copy into OMS, derivation,
// property tagging. It holds captureMu's read side throughout, so
// SyncLibrary never observes the master checkin before the slave
// version carries its tag (and double-imports it).
func (h *Hybrid) captureResult(user string, session *fmcad.Session, wf *fmcad.Workfile,
	outputDO, inputDOV oms.OID) (oms.OID, int, error) {
	h.captureMu.RLock()
	defer h.captureMu.RUnlock()
	slaveVersion, err := session.Checkin(wf)
	if err != nil {
		return oms.InvalidOID, 0, fmt.Errorf("core: slave checkin: %w", err)
	}
	// The slave's new version file is the source for the master copy-in.
	src := h.Lib.VersionPath(wf.Cell, wf.View, slaveVersion)
	dov, err := h.JCF.CheckInData(user, outputDO, src)
	if err != nil {
		return oms.InvalidOID, 0, err
	}
	if inputDOV != oms.InvalidOID {
		if err := h.JCF.RecordDerivation(inputDOV, dov); err != nil {
			return oms.InvalidOID, 0, err
		}
	}
	if err := h.Lib.SetProperty(wf.Cell, wf.View, slaveVersion, PropJCFVersion, fmt.Sprintf("%d", dov)); err != nil {
		return oms.InvalidOID, 0, err
	}
	return dov, slaveVersion, nil
}

// stageInput runs step 3: copy the latest version of the input design
// object out of the database. Returns the DOV and the staged path.
func (h *Hybrid) stageInput(user string, inputDO oms.OID, stageName string) (oms.OID, string, error) {
	dov := h.JCF.LatestVersion(inputDO)
	if dov == oms.InvalidOID {
		return oms.InvalidOID, "", fmt.Errorf("core: input design object %d has no checked-in version", inputDO)
	}
	path := h.stagePath(user, stageName)
	if err := h.JCF.CheckOutData(user, dov, path); err != nil {
		return oms.InvalidOID, "", err
	}
	return dov, path, nil
}

// RunSchematicEntry executes the schematic entry tool: edit receives the
// current schematic of the cell version (empty on first entry) and
// mutates it; the result becomes a new schematic version in both
// frameworks.
func (h *Hybrid) RunSchematicEntry(user string, cv oms.OID, edit func(*schematic.Schematic) error, opts RunOpts) (RunResult, error) {
	binding, err := h.BindingFor(cv)
	if err != nil {
		return RunResult{}, err
	}
	forced, err := h.beginActivity(user, cv, ActSchematicEntry, opts)
	if err != nil {
		return RunResult{}, err
	}
	res := RunResult{Activity: ActSchematicEntry, Forced: forced}
	ok := false
	defer func() { h.endActivity(user, cv, ActSchematicEntry, forced, ok) }()

	session, wf, err := h.checkoutSlave(user, binding.FMCADCell, ViewSchematic)
	if err != nil {
		return res, err
	}
	// Load the working copy (may be empty on the first entry).
	data, err := os.ReadFile(wf.Path)
	if err != nil {
		return res, abortSlave(session, wf, fmt.Errorf("core: reading working copy: %w", err))
	}
	var sch *schematic.Schematic
	if len(data) == 0 {
		sch = schematic.New(binding.FMCADCell)
	} else {
		sch, err = schematic.Parse(data)
		if err != nil {
			return res, abortSlave(session, wf, fmt.Errorf("core: working copy corrupt: %w", err))
		}
	}
	if err := edit(sch); err != nil {
		return res, abortSlave(session, wf, fmt.Errorf("core: schematic edit: %w", err))
	}
	if problems := sch.Validate(); len(problems) > 0 {
		return res, abortSlave(session, wf, fmt.Errorf("core: schematic invalid: %s", problems[0]))
	}
	if err := os.WriteFile(wf.Path, sch.Format(), 0o644); err != nil {
		return res, abortSlave(session, wf, fmt.Errorf("core: writing working copy: %w", err))
	}
	dov, slaveV, err := h.captureResult(user, session, wf, binding.DesignObjects[ViewSchematic], oms.InvalidOID)
	if err != nil {
		return res, err
	}
	res.OutputDOV, res.SlaveVersion = dov, slaveV
	ok = true
	return res, nil
}

// RunSimulation executes the digital simulator on the cell version's
// current schematic with the given stimulus, storing the waveform output
// as a new waveform design object version derived from the schematic.
func (h *Hybrid) RunSimulation(user string, cv oms.OID, stimulus []byte, opts RunOpts) (RunResult, []byte, error) {
	binding, err := h.BindingFor(cv)
	if err != nil {
		return RunResult{}, nil, err
	}
	forced, err := h.beginActivity(user, cv, ActSimulate, opts)
	if err != nil {
		return RunResult{}, nil, err
	}
	res := RunResult{Activity: ActSimulate, Forced: forced}
	ok := false
	defer func() { h.endActivity(user, cv, ActSimulate, forced, ok) }()

	// Read-only input still costs a full copy-out (section 3.6).
	inputDOV, stagedIn, err := h.stageInput(user, binding.DesignObjects[ViewSchematic], binding.FMCADCell+".sch")
	if err != nil {
		return res, nil, err
	}
	res.InputDOV = inputDOV
	data, err := os.ReadFile(stagedIn)
	if err != nil {
		return res, nil, fmt.Errorf("core: reading staged input: %w", err)
	}
	sch, err := schematic.Parse(data)
	if err != nil {
		return res, nil, fmt.Errorf("core: staged schematic corrupt: %w", err)
	}
	circuit, err := dsim.Flatten(sch, h.SchematicResolver(user))
	if err != nil {
		return res, nil, err
	}
	stim, err := dsim.ParseStimulus(stimulus)
	if err != nil {
		return res, nil, err
	}
	sim := dsim.NewSimulator(circuit)
	if _, err := stim.Apply(sim); err != nil {
		return res, nil, err
	}
	waves := sim.DumpWaves()

	session, wf, err := h.checkoutSlave(user, binding.FMCADCell, ViewWaveform)
	if err != nil {
		return res, nil, err
	}
	if err := os.WriteFile(wf.Path, waves, 0o644); err != nil {
		return res, nil, abortSlave(session, wf, fmt.Errorf("core: writing waveform: %w", err))
	}
	dov, slaveV, err := h.captureResult(user, session, wf, binding.DesignObjects[ViewWaveform], inputDOV)
	if err != nil {
		return res, nil, err
	}
	res.OutputDOV, res.SlaveVersion = dov, slaveV
	ok = true
	return res, waves, nil
}

// RunLayoutEntry executes the layout editor: edit receives the current
// layout (a generated seed from the schematic when empty) and mutates it.
// In JCF 3.0 the result is rejected when its hierarchy is non-isomorphic
// to the schematic hierarchy, because the master cannot represent
// per-view-type hierarchies (section 2.3).
func (h *Hybrid) RunLayoutEntry(user string, cv oms.OID, edit func(*layout.Layout) error, opts RunOpts) (RunResult, error) {
	binding, err := h.BindingFor(cv)
	if err != nil {
		return RunResult{}, err
	}
	forced, err := h.beginActivity(user, cv, ActLayoutEntry, opts)
	if err != nil {
		return RunResult{}, err
	}
	res := RunResult{Activity: ActLayoutEntry, Forced: forced}
	ok := false
	defer func() { h.endActivity(user, cv, ActLayoutEntry, forced, ok) }()

	inputDOV, stagedIn, err := h.stageInput(user, binding.DesignObjects[ViewSchematic], binding.FMCADCell+".sch")
	if err != nil {
		return res, err
	}
	res.InputDOV = inputDOV
	data, err := os.ReadFile(stagedIn)
	if err != nil {
		return res, fmt.Errorf("core: reading staged input: %w", err)
	}
	sch, err := schematic.Parse(data)
	if err != nil {
		return res, fmt.Errorf("core: staged schematic corrupt: %w", err)
	}

	session, wf, err := h.checkoutSlave(user, binding.FMCADCell, ViewLayout)
	if err != nil {
		return res, err
	}
	current, err := os.ReadFile(wf.Path)
	if err != nil {
		return res, abortSlave(session, wf, fmt.Errorf("core: reading working copy: %w", err))
	}
	var lay *layout.Layout
	if len(current) == 0 {
		lay, err = layout.FromSchematic(sch, 16)
		if err != nil {
			return res, abortSlave(session, wf, err)
		}
	} else {
		lay, err = layout.Parse(current)
		if err != nil {
			return res, abortSlave(session, wf, fmt.Errorf("core: working copy corrupt: %w", err))
		}
	}
	if edit != nil {
		if err := edit(lay); err != nil {
			return res, abortSlave(session, wf, fmt.Errorf("core: layout edit: %w", err))
		}
	}

	// Non-isomorphic hierarchy guard (JCF 3.0 master cannot hold per-view
	// hierarchies): the layout's instance structure must match the
	// schematic's.
	if h.JCF.Release() < jcf.Release40 {
		if !isomorphicInstances(sch, lay) {
			return res, abortSlave(session, wf, fmt.Errorf("%w: layout hierarchy differs from schematic (non-isomorphic); JCF 3.0 cannot represent it", jcf.ErrUnsupported))
		}
	}

	if err := os.WriteFile(wf.Path, lay.Format(), 0o644); err != nil {
		return res, abortSlave(session, wf, fmt.Errorf("core: writing working copy: %w", err))
	}
	dov, slaveV, err := h.captureResult(user, session, wf, binding.DesignObjects[ViewLayout], inputDOV)
	if err != nil {
		return res, err
	}
	res.OutputDOV, res.SlaveVersion = dov, slaveV
	ok = true
	return res, nil
}

// isomorphicInstances compares the instance sets of a schematic and a
// layout by instance name and instantiated cell (views differ by
// construction: schematic instances reference schematic views, layout
// instances layout views).
func isomorphicInstances(sch *schematic.Schematic, lay *layout.Layout) bool {
	schInsts := sch.Instances()
	layInsts := lay.Instances()
	if len(schInsts) != len(layInsts) {
		return false
	}
	byName := map[string]string{}
	for _, in := range schInsts {
		byName[in.Name] = in.Cell
	}
	for _, in := range layInsts {
		cell, ok := byName[in.Name]
		if !ok || cellBase(cell) != cellBase(in.Cell) {
			return false
		}
	}
	return true
}

// cellBase strips a _v<N> version suffix so schematic and layout instances
// of different bound versions still compare as the same design cell.
func cellBase(name string) string {
	for i := len(name) - 1; i > 0; i-- {
		if name[i] == 'v' && i >= 2 && name[i-1] == '_' {
			allDigits := i+1 < len(name)
			for j := i + 1; j < len(name); j++ {
				if name[j] < '0' || name[j] > '9' {
					allDigits = false
					break
				}
			}
			if allDigits {
				return name[:i-1]
			}
		}
	}
	return name
}

// SchematicResolver returns a dsim.Resolver that loads instantiated
// schematics through the master framework: the child cellview's latest
// JCF version is copied out of the database (another read-only full copy).
func (h *Hybrid) SchematicResolver(user string) dsim.Resolver {
	return func(cell, view string) (*schematic.Schematic, error) {
		cv, err := h.CellVersionFor(cell)
		if err != nil {
			return nil, err
		}
		binding, err := h.BindingFor(cv)
		if err != nil {
			return nil, err
		}
		do, ok := binding.DesignObjects[ViewSchematic]
		if !ok {
			return nil, fmt.Errorf("core: cell %q has no schematic design object", cell)
		}
		_, staged, err := h.stageInput(user, do, cell+".child.sch")
		if err != nil {
			return nil, err
		}
		data, err := os.ReadFile(staged)
		if err != nil {
			return nil, err
		}
		return schematic.Parse(data)
	}
}
