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
// under JCF control, through the one step sequence of run:
//
//  1. fire the pre-activity trigger (FML scripts may veto),
//  2. start the JCF activity (workspace + flow enforcement),
//  3. for a tool that reads the schematic, copy its latest version OUT of
//     the OMS database to a staging file (a full copy even for read-only
//     input — the section 3.6 cost),
//  4. check out the slave cellview and run the tool on the working copy,
//  5. capture the result, master first: copy the working copy INTO the
//     OMS database as a new design object version and record the
//     derivation, then check the slave version in, tagged with the JCF
//     version (PropJCFVersion) in the same slave metadata commit (see
//     capture),
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

// run executes a tool as the JCF activity that writes view, in steps 1-6
// above. body is the tool itself (step 4): given the staged input
// schematic (nil unless readsSchematic) and the checked-out working copy,
// it returns the content to capture. With readsSchematic, run stages the
// cell version's latest schematic as the input and records the output as
// derived from it.
func (h *Hybrid) run(user string, cv oms.OID, opts RunOpts, activity, view string, readsSchematic bool,
	body func(in *schematic.Schematic, wf *fmcad.Workfile) ([]byte, error)) (RunResult, error) {
	binding, err := h.BindingFor(cv)
	if err != nil {
		return RunResult{}, err
	}
	forced, err := h.beginActivity(user, cv, activity, opts)
	if err != nil {
		return RunResult{}, err
	}
	res := RunResult{Activity: activity, Forced: forced}
	ok := false
	defer func() { h.endActivity(user, cv, activity, forced, ok) }()

	var in *schematic.Schematic
	if readsSchematic {
		res.InputDOV, in, err = h.stageSchematic(user, binding.DesignObjects[ViewSchematic], binding.FMCADCell+".sch")
		if err != nil {
			return res, err
		}
	}
	session, wf, err := h.checkoutSlave(user, binding.FMCADCell, view)
	if err != nil {
		return res, err
	}
	out, err := body(in, wf)
	if err == nil {
		if werr := os.WriteFile(wf.Path, out, 0o644); werr != nil {
			err = fmt.Errorf("core: writing working copy: %w", werr)
		}
	}
	if err != nil {
		return res, abortSlave(session, wf, err)
	}
	h.captureMu.RLock()
	defer h.captureMu.RUnlock()
	dov, slaveV, err := capture(session, wf, func() (oms.OID, error) {
		dov, err := h.JCF.CheckInData(user, binding.DesignObjects[view], wf.Path)
		if err == nil && res.InputDOV != oms.InvalidOID {
			err = h.JCF.RecordDerivation(res.InputDOV, dov)
		}
		return dov, err
	})
	if err != nil {
		return res, err
	}
	res.OutputDOV, res.SlaveVersion = dov, slaveV
	ok = true
	return res, nil
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

// capture is the coupling's one capture step, shared by the tool runs and
// SyncLibrary. The master commits first: master puts the design object
// version in the master's store (a tool run checks the working copy in)
// or, for a version the store already holds, exports it into the working
// copy. Then one slave checkin creates the cellview version carrying that
// version as its PropJCFVersion tag, in the same metadata commit. On any
// failure the slave checkout is cancelled, so capture never leaves an
// untagged slave version; a master version whose slave checkin failed
// is imported by the next SyncLibrary. The caller holds captureMu.
func capture(session *fmcad.Session, wf *fmcad.Workfile, master func() (oms.OID, error)) (oms.OID, int, error) {
	dov, err := master()
	if err != nil {
		return oms.InvalidOID, 0, abortSlave(session, wf, err)
	}
	wf.Props = map[string]string{PropJCFVersion: fmt.Sprint(dov)}
	slaveV, err := session.Checkin(wf)
	if err != nil {
		return oms.InvalidOID, 0, abortSlave(session, wf, fmt.Errorf("core: slave checkin: %w", err))
	}
	return dov, slaveV, nil
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

// stageSchematic stages the latest version of a schematic design object
// (see stageInput) and parses it.
func (h *Hybrid) stageSchematic(user string, do oms.OID, stageName string) (oms.OID, *schematic.Schematic, error) {
	dov, staged, err := h.stageInput(user, do, stageName)
	if err != nil {
		return oms.InvalidOID, nil, err
	}
	data, err := os.ReadFile(staged)
	if err != nil {
		return oms.InvalidOID, nil, fmt.Errorf("core: reading staged input: %w", err)
	}
	sch, err := schematic.Parse(data)
	if err != nil {
		return oms.InvalidOID, nil, fmt.Errorf("core: staged schematic corrupt: %w", err)
	}
	return dov, sch, nil
}

// readWorkfile reads a tool's working copy.
func readWorkfile(wf *fmcad.Workfile) ([]byte, error) {
	data, err := os.ReadFile(wf.Path)
	if err != nil {
		return nil, fmt.Errorf("core: reading working copy: %w", err)
	}
	return data, nil
}

// RunSchematicEntry executes the schematic entry tool: edit receives the
// current schematic of the cell version (empty on first entry) and
// mutates it; the result becomes a new schematic version in both
// frameworks.
func (h *Hybrid) RunSchematicEntry(user string, cv oms.OID, edit func(*schematic.Schematic) error, opts RunOpts) (RunResult, error) {
	return h.run(user, cv, opts, ActSchematicEntry, ViewSchematic, false, func(_ *schematic.Schematic, wf *fmcad.Workfile) ([]byte, error) {
		data, err := readWorkfile(wf)
		if err != nil {
			return nil, err
		}
		var sch *schematic.Schematic
		if len(data) == 0 {
			sch = schematic.New(wf.Cell)
		} else if sch, err = schematic.Parse(data); err != nil {
			return nil, fmt.Errorf("core: working copy corrupt: %w", err)
		}
		if err := edit(sch); err != nil {
			return nil, fmt.Errorf("core: schematic edit: %w", err)
		}
		if problems := sch.Validate(); len(problems) > 0 {
			return nil, fmt.Errorf("core: schematic invalid: %s", problems[0])
		}
		return sch.Format(), nil
	})
}

// RunSimulation executes the digital simulator on the cell version's
// current schematic with the given stimulus, storing the waveform output
// as a new waveform design object version derived from the schematic.
func (h *Hybrid) RunSimulation(user string, cv oms.OID, stimulus []byte, opts RunOpts) (RunResult, []byte, error) {
	var waves []byte
	res, err := h.run(user, cv, opts, ActSimulate, ViewWaveform, true, func(sch *schematic.Schematic, _ *fmcad.Workfile) ([]byte, error) {
		circuit, err := dsim.Flatten(sch, h.SchematicResolver(user))
		if err != nil {
			return nil, err
		}
		stim, err := dsim.ParseStimulus(stimulus)
		if err != nil {
			return nil, err
		}
		sim := dsim.NewSimulator(circuit)
		if _, err := stim.Apply(sim); err != nil {
			return nil, err
		}
		waves = sim.DumpWaves()
		return waves, nil
	})
	if err != nil {
		return res, nil, err
	}
	return res, waves, nil
}

// RunLayoutEntry executes the layout editor: edit receives the current
// layout (a generated seed from the schematic when empty) and mutates it.
// In JCF 3.0 the result is rejected when its hierarchy is non-isomorphic
// to the schematic hierarchy, because the master cannot represent
// per-view-type hierarchies (section 2.3).
func (h *Hybrid) RunLayoutEntry(user string, cv oms.OID, edit func(*layout.Layout) error, opts RunOpts) (RunResult, error) {
	return h.run(user, cv, opts, ActLayoutEntry, ViewLayout, true, func(sch *schematic.Schematic, wf *fmcad.Workfile) ([]byte, error) {
		current, err := readWorkfile(wf)
		if err != nil {
			return nil, err
		}
		var lay *layout.Layout
		if len(current) == 0 {
			lay, err = layout.FromSchematic(sch, 16)
		} else if lay, err = layout.Parse(current); err != nil {
			err = fmt.Errorf("core: working copy corrupt: %w", err)
		}
		if err != nil {
			return nil, err
		}
		if edit != nil {
			if err := edit(lay); err != nil {
				return nil, fmt.Errorf("core: layout edit: %w", err)
			}
		}
		// Non-isomorphic hierarchy guard (JCF 3.0 master cannot hold
		// per-view hierarchies): the layout's instance structure must
		// match the schematic's.
		if h.JCF.Release() < jcf.Release40 && !isomorphicInstances(sch, lay) {
			return nil, fmt.Errorf("%w: layout hierarchy differs from schematic (non-isomorphic); JCF 3.0 cannot represent it", jcf.ErrUnsupported)
		}
		return lay.Format(), nil
	})
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
		_, sch, err := h.stageSchematic(user, do, cell+".child.sch")
		return sch, err
	}
}
