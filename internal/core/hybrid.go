package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/fmcad"
	"repro/internal/fml"
	"repro/internal/itc"
	"repro/internal/jcf"
	"repro/internal/oms"
)

// Standard resource names the hybrid framework installs.
const (
	ToolSchematic = "fmcad-schematic"
	ToolSimulator = "fmcad-dsim"
	ToolLayout    = "fmcad-layout"

	ViewSchematic = "schematic"
	ViewLayout    = "layout"
	ViewSymbol    = "symbol"
	ViewWaveform  = "waveform"

	ActSchematicEntry = "schematic-entry"
	ActSimulate       = "simulate"
	ActLayoutEntry    = "layout-entry"
)

// The FMCAD-native data-management menu points the encapsulation locks:
// with JCF as master, designers must not bypass it through the slave's own
// checkin/checkout (section 2.4: extension-language procedures "lock menu
// points in order to prevent data inconsistency").
var lockedMenus = []string{
	"File>CheckIn",
	"File>CheckOut",
	"File>DeleteVersion",
	"Library>EditMeta",
}

// Hybrid is the coupled JCF–FMCAD framework. JCF (master) owns all design
// management; the FMCAD library (slave) holds the tools' working data.
type Hybrid struct {
	JCF    *jcf.Framework
	Lib    *fmcad.Library
	Bus    *itc.Bus
	Interp *fml.Interp
	Hooks  *fml.Hooks

	stage string // staging directory for OMS <-> file-system copies

	// captureMu keeps SyncLibrary from seeing a tool run's master
	// checkin before the slave version that carries its tag exists (and
	// importing it a second time): a tool run holds the read side from
	// its master checkin through its tagged slave checkin (see capture),
	// and SyncLibrary holds the write side. The mapping itself is read
	// from the master's store on every query.
	captureMu sync.RWMutex
	// overrides counts forced out-of-order activity executions that went
	// through a consistency window. Like the flow enactments and the FML
	// counters it is session state, not saved.
	overrides atomic.Int64
}

// DefaultFlow returns the three-activity encapsulation flow of section
// 2.4: schematic entry, then digital simulation, then layout entry.
func DefaultFlow() *flow.Flow {
	f := flow.New("fmcad-encapsulation")
	// Errors are impossible for this fixed construction (unique names,
	// known references); assert that instead of discarding them.
	must := func(err error) {
		if err != nil {
			panic("core: DefaultFlow construction: " + err.Error())
		}
	}
	must(f.AddActivity(flow.Activity{Name: ActSchematicEntry, Tool: ToolSchematic, Creates: []string{ViewSchematic}}))
	must(f.AddActivity(flow.Activity{Name: ActSimulate, Tool: ToolSimulator, Needs: []string{ViewSchematic}, Creates: []string{ViewWaveform}}))
	must(f.AddActivity(flow.Activity{Name: ActLayoutEntry, Tool: ToolLayout, Needs: []string{ViewSchematic}, Creates: []string{ViewLayout}}))
	must(f.AddPrecedes(ActSchematicEntry, ActSimulate))
	must(f.AddPrecedes(ActSimulate, ActLayoutEntry))
	return f
}

// boundViews are the views every bound cell version gets a design
// object for in the master and a cellview for in the slave.
var boundViews = []string{ViewSchematic, ViewLayout, ViewWaveform}

// NewHybrid assembles the coupled framework in dir: a JCF instance of the
// given release (master), an FMCAD library under dir/library (slave), the
// ITC bus, and the FML interpreter with the encapsulation customization
// installed.
func NewHybrid(release jcf.Release, dir string) (*Hybrid, error) {
	fw, err := jcf.New(release)
	if err != nil {
		return nil, err
	}
	lib, err := fmcad.Create(filepath.Join(dir, "library"), "hybrid")
	if err != nil {
		return nil, err
	}
	// The views of the encapsulated tools, on both sides (Table 1:
	// ViewType -> View), then the master's tools and default flow.
	for _, view := range []string{ViewSchematic, ViewLayout, ViewSymbol, ViewWaveform} {
		if err := lib.DefineView(view, view); err != nil {
			return nil, err
		}
		if _, err := fw.CreateViewType(view); err != nil {
			return nil, err
		}
	}
	for _, tool := range []string{ToolSchematic, ToolSimulator, ToolLayout} {
		if _, err := fw.CreateTool(tool); err != nil {
			return nil, err
		}
	}
	if _, err := fw.RegisterFlow(DefaultFlow()); err != nil {
		return nil, err
	}
	return attach(fw, lib, dir)
}

// attach couples master fw to slave lib, both already set up under dir;
// NewHybrid and LoadHybrid share it. It installs the extension-language
// customization. The bindings stay in the master's store, so fw may also
// be a replica view.
func attach(fw *jcf.Framework, lib *fmcad.Library, dir string) (*Hybrid, error) {
	interp := fml.NewInterp()
	h := &Hybrid{
		JCF:    fw,
		Lib:    lib,
		Bus:    itc.NewBus(),
		Interp: interp,
		Hooks:  fml.NewHooks(interp),
		stage:  filepath.Join(dir, "stage"),
	}
	// Extension-language customization (section 2.4): lock the
	// FMCAD-native data-management menus and register the consistency
	// window trigger. The script runs in the slave's own language, as the
	// original prototype did.
	script := ""
	for _, menu := range lockedMenus {
		script += fmt.Sprintf("(hiLockMenu %q %q)\n", menu, "data management is owned by JCF")
	}
	script += `
(setq jcfConsistencyWindows 0)
(hiRegTrigger "consistency-window"
  (lambda (activity) (setq jcfConsistencyWindows (+ jcfConsistencyWindows 1))))
`
	if _, err := interp.Run(script); err != nil {
		return nil, fmt.Errorf("core: installing FML customization: %w", err)
	}
	return h, nil
}

// DefaultFlowName returns the name of the registered encapsulation flow.
func (h *Hybrid) DefaultFlowName() string { return "fmcad-encapsulation" }

// StageDir returns the staging directory used for database/file exchange.
func (h *Hybrid) StageDir() string { return h.stage }

// Overrides returns how many activities ran out of flow order through the
// consistency-window escape hatch in this session; like the FML counter
// jcfConsistencyWindows, it starts at 0 in a reloaded hybrid.
func (h *Hybrid) Overrides() int64 { return h.overrides.Load() }

// MenuLocked reports whether the encapsulation locked an FMCAD menu point.
func (h *Hybrid) MenuLocked(menu string) bool {
	_, locked := h.Hooks.Locked(menu)
	return locked
}

// InvokeNativeMenu simulates a designer picking an FMCAD-native menu
// point. The locked data-management entries fail — the guard the paper's
// customization installs.
func (h *Hybrid) InvokeNativeMenu(menu string) error {
	return h.Hooks.Invoke(menu)
}

// --- provisioning -----------------------------------------------------------

// NewDesignCell creates a JCF cell with an initial cell version running
// the given flow, and binds the version to a fresh FMCAD cell with
// cellviews for the flow's view types. It returns the cell version OID.
func (h *Hybrid) NewDesignCell(project oms.OID, cellName, flowName string, team oms.OID) (oms.OID, error) {
	cell, err := h.JCF.CreateCell(project, cellName)
	if err != nil {
		return oms.InvalidOID, err
	}
	return h.NewCellVersion(cell, flowName, team)
}

// NewCellVersion instantiates another version of an existing JCF cell,
// binding it to its own FMCAD cell (Table 1: CellVersion -> Cell). The
// slave cell and its cellviews are created before the master commits the
// binding, so a bound version's slave side always exists.
//
// A crash after the slave writes but before the master's next save
// leaves a slave cell that no cell version names, under the name the
// reloaded master issues again. NewCellVersion adopts such a cell while
// each of its cellviews holds only the empty seed version 1; a later
// version carries the tag of a design object version the master never
// kept, so then it returns an error wrapping fmcad.ErrExists.
func (h *Hybrid) NewCellVersion(cell oms.OID, flowName string, team oms.OID) (oms.OID, error) {
	cv, err := h.JCF.CreateCellVersion(cell, flowName, team)
	if err != nil {
		return oms.InvalidOID, err
	}
	fmcadCell := FMCADCellName(h.JCF.CellName(cell), h.JCF.CellVersionNum(cv))
	var views map[string]bool // cellviews of an adopted slave cell
	if err := h.Lib.CreateCell(fmcadCell); errors.Is(err, fmcad.ErrExists) {
		if views, err = h.strandedCellviews(fmcadCell); err != nil {
			return oms.InvalidOID, err
		}
	} else if err != nil {
		return oms.InvalidOID, err
	}
	for _, view := range boundViews {
		if views[view] {
			continue
		}
		if err := h.Lib.CreateCellview(fmcadCell, view); err != nil {
			return oms.InvalidOID, err
		}
	}
	if err := h.JCF.BindSlaveCell(cv, fmcadCell, boundViews); err != nil {
		return oms.InvalidOID, err
	}
	return cv, nil
}

// strandedCellviews returns the cellviews of an existing slave cell that
// NewCellVersion may adopt: no cell version names it, and each cellview
// holds only its seed version 1. Otherwise it returns an error wrapping
// fmcad.ErrExists.
func (h *Hybrid) strandedCellviews(fmcadCell string) (map[string]bool, error) {
	refuse := func(why string) error {
		return fmt.Errorf("core: %w: slave cell %q %s", fmcad.ErrExists, fmcadCell, why)
	}
	if _, err := h.JCF.CellVersionFor(fmcadCell); !errors.Is(err, jcf.ErrNotFound) {
		return nil, refuse("is bound in the master")
	}
	views, err := h.Lib.Cellviews(fmcadCell)
	if err != nil {
		return nil, err
	}
	have := map[string]bool{}
	for _, view := range views {
		versions, err := h.Lib.Versions(fmcadCell, view)
		if err != nil {
			return nil, err
		}
		if len(versions) != 1 || versions[0] != 1 {
			return nil, refuse(fmt.Sprintf("holds versions %v of %s past the seed", versions, view))
		}
		have[view] = true
	}
	return have, nil
}

// BindingFor returns the mapping state of a cell version, read from the
// master's store.
func (h *Hybrid) BindingFor(cv oms.OID) (Binding, error) {
	fmcadCell, dos, ok := h.JCF.SlaveBinding(cv)
	if !ok {
		return Binding{}, fmt.Errorf("core: cell version %d has no FMCAD binding", cv)
	}
	return Binding{CellVersion: cv, FMCADCell: fmcadCell, DesignObjects: dos}, nil
}

// CellVersionFor resolves an FMCAD cell name back to its JCF cell version
// — the inverse mapping, used by the cross-probe wrappers. It is an error
// when no cell version, or more than one, is bound to the cell.
func (h *Hybrid) CellVersionFor(fmcadCell string) (oms.OID, error) {
	return h.JCF.CellVersionFor(fmcadCell)
}

// Bindings lists all bound FMCAD cell names, sorted, as the master's
// store holds them.
func (h *Hybrid) Bindings() []string {
	cvs := h.JCF.BoundCellVersions()
	out := make([]string, 0, len(cvs))
	for _, cv := range cvs {
		if fmcadCell, _, ok := h.JCF.SlaveBinding(cv); ok {
			out = append(out, fmcadCell)
		}
	}
	sort.Strings(out)
	return slices.Compact(out)
}
