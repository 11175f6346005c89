package core

import (
	"fmt"
	"maps"
	"path/filepath"
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

	// mu guards the binding index and the feed-sync state. The hot paths
	// only read them, so readers share the lock. The index caches the
	// master's store: only indexBindingsLocked fills it, and an indexed
	// binding never changes.
	mu       sync.RWMutex
	bindings map[oms.OID]Binding // cell version -> slave binding
	byCell   map[string]oms.OID  // fmcad cell name -> cell version
	// sync is the coupling's cursor into the master's change feed
	// (dirty bindings, pending library imports; see feedsync.go).
	sync feedSyncState
	// syncLibMu serializes SyncLibrary runs so two concurrent syncs
	// cannot both import the same pending version; the library I/O
	// itself runs outside h.mu (see SyncLibrary).
	syncLibMu sync.Mutex
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
// customization, points the feed cursor at the master's position and
// indexes every cell version the master's store marks as bound. Later
// bindings enter the index through NewCellVersion or the feed pump, so
// fw may also be a replica view.
func attach(fw *jcf.Framework, lib *fmcad.Library, dir string) (*Hybrid, error) {
	interp := fml.NewInterp()
	h := &Hybrid{
		JCF:      fw,
		Lib:      lib,
		Bus:      itc.NewBus(),
		Interp:   interp,
		Hooks:    fml.NewHooks(interp),
		stage:    filepath.Join(dir, "stage"),
		bindings: map[oms.OID]Binding{},
		byCell:   map[string]oms.OID{},
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
	h.mu.Lock()
	h.initFeedSync()
	h.indexBindingsLocked(fw.BoundCellVersions()...)
	h.mu.Unlock()
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
func (h *Hybrid) NewCellVersion(cell oms.OID, flowName string, team oms.OID) (oms.OID, error) {
	cv, err := h.JCF.CreateCellVersion(cell, flowName, team)
	if err != nil {
		return oms.InvalidOID, err
	}
	fmcadCell := FMCADCellName(h.JCF.CellName(cell), h.JCF.CellVersionNum(cv))
	if err := h.Lib.CreateCell(fmcadCell); err != nil {
		return oms.InvalidOID, err
	}
	for _, view := range boundViews {
		if err := h.Lib.CreateCellview(fmcadCell, view); err != nil {
			return oms.InvalidOID, err
		}
	}
	if err := h.JCF.BindSlaveCell(cv, fmcadCell, boundViews); err != nil {
		return oms.InvalidOID, err
	}
	h.mu.Lock()
	h.indexBindingsLocked(cv)
	h.mu.Unlock()
	return cv, nil
}

// indexBindingsLocked adds to the binding index each of the given cell
// versions that the master's store marks as bound — the only way a
// binding enters the index. Caller holds h.mu.
func (h *Hybrid) indexBindingsLocked(cvs ...oms.OID) {
	for _, cv := range cvs {
		if _, done := h.bindings[cv]; done {
			continue
		}
		fmcadCell, dos, ok := h.JCF.SlaveBinding(cv)
		if !ok {
			continue
		}
		h.bindings[cv] = Binding{CellVersion: cv, FMCADCell: fmcadCell, DesignObjects: dos}
		h.byCell[fmcadCell] = cv
		for _, do := range dos {
			h.sync.doToCV[do] = cv
		}
		h.sync.dirty[cv] = true
	}
}

// lookup reads key from a binding index under the read lock. On a miss
// it folds the master's change feed into the index and reads once more:
// on a replica view a binding reaches the index only through the feed.
func lookup[K comparable, V any](h *Hybrid, index map[K]V, key K) (V, bool) {
	h.mu.RLock()
	v, ok := index[key]
	h.mu.RUnlock()
	if !ok {
		h.mu.Lock()
		h.pumpFeedLocked()
		v, ok = index[key]
		h.mu.Unlock()
	}
	return v, ok
}

// BindingFor returns the mapping state of a cell version.
func (h *Hybrid) BindingFor(cv oms.OID) (Binding, error) {
	b, ok := lookup(h, h.bindings, cv)
	if !ok {
		return Binding{}, fmt.Errorf("core: cell version %d has no FMCAD binding", cv)
	}
	b.DesignObjects = maps.Clone(b.DesignObjects)
	return b, nil
}

// CellVersionFor resolves an FMCAD cell name back to its JCF cell version
// — the inverse mapping, used by the cross-probe wrappers.
func (h *Hybrid) CellVersionFor(fmcadCell string) (oms.OID, error) {
	cv, ok := lookup(h, h.byCell, fmcadCell)
	if !ok {
		return oms.InvalidOID, fmt.Errorf("core: FMCAD cell %q has no JCF binding", fmcadCell)
	}
	return cv, nil
}

// Bindings lists all bound FMCAD cell names, sorted, as of the master's
// current feed position.
func (h *Hybrid) Bindings() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pumpFeedLocked()
	out := make([]string, 0, len(h.byCell))
	for name := range h.byCell {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// VerifyMapping lives in feedsync.go: the feed-driven fast path
// re-verifies only bindings the master's change feed dirtied since the
// last call; the tests check it against a full rescan.
