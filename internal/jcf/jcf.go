// Package jcf implements the JESSI-COMMON-Framework (JCF 3.0) of the
// paper: a CAD framework with strong design management, two-level
// versioning, team-based concurrent engineering via workspaces, prescribed
// design flows and a common object-oriented database (OMS) that holds both
// metadata and design data.
//
// The package reproduces the section 2.1 architecture:
//
//   - Resources (users, teams, tools, view types, flows) are metadata,
//     defined in advance by the framework administrator and fully under
//     framework control.
//   - Project data are cells and relationships between cells. Cells have
//     cell versions; each cell version carries its (possibly modified)
//     flow and team, and contains variants — a second versioning
//     mechanism for exploring alternatives.
//   - The workspace concept lets exactly one user reserve a cell version;
//     everyone else may only read the published parts. This is "the
//     kernel of the JCF multi-user capabilities".
//   - All data live in the OMS database. Encapsulated tools exchange
//     design data with the database only through UNIX files (CopyIn /
//     CopyOut) — "direct access to the internal structure of the stored
//     data ... is not possible", which is also why even read-only tool
//     access pays a full copy-out (section 3.6).
//
// Release gating: New takes a Release. Release30 reproduces the paper's
// limitations (no procedural hierarchy interface, no non-isomorphic
// hierarchies, no inter-project sharing); Release40 enables the paper's
// future-work features so the experiments can show both eras.
package jcf

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/oms"
	"repro/internal/oms/backend"
	"repro/internal/oms/blobstore"
	"repro/internal/otod"
)

// Release selects the JCF feature level.
type Release int

// Supported releases. Release30 is the paper's JCF 3.0; Release40 is the
// hypothetical next release with the paper's future-work features enabled.
const (
	Release30 Release = 30
	Release40 Release = 40
)

// String returns "3.0" or "4.0".
func (r Release) String() string {
	switch r {
	case Release30:
		return "3.0"
	case Release40:
		return "4.0"
	}
	return fmt.Sprintf("Release(%d)", int(r))
}

// Errors reported by the framework.
var (
	ErrReserved     = errors.New("jcf: cell version is reserved by another user")
	ErrNotReserved  = errors.New("jcf: cell version is not reserved by this user")
	ErrNotMember    = errors.New("jcf: user is not a member of the responsible team")
	ErrNotPublished = errors.New("jcf: cell version is not published for reading")
	ErrUnsupported  = errors.New("jcf: feature not supported in this release")
	ErrNotFound     = errors.New("jcf: object not found")
	ErrExists       = errors.New("jcf: object already exists")
)

// relNames resolves the OTO-D relationship labels into the (possibly
// qualified) oms.Schema relationship names once at startup.
type relNames struct {
	memberOf, supports          string
	has, cellHasVersion, compOf string
	attachedFlow, attachedTeam  string
	hasVariant, variantPrecedes string
	uses, doHasVersion          string
	ofViewType                  string
	equivalent, derived         string
	cfgHasVersion, cfgPrecedes  string
	hasEntry, configures        string
	edgeParent, edgeChild       string
	shares                      string
	contains, proxies           string
	performedBy                 string
}

// Framework is one live JCF instance. All methods are safe for concurrent
// use. The underlying OMS store is private: tools and coupling layers get
// only this desktop API — the "closed interfaces" the paper works around.
type Framework struct {
	release Release
	model   *otod.Model
	store   *oms.Store

	// replica marks a read-only replica view (see replica.go): every
	// mutating entry point consults guardWrite before touching anything.
	// Atomic because PromoteToPrimary flips it while readers query.
	replica atomic.Bool

	// numMu serializes count-then-create version/variant numbering
	// (CreateCellVersion, CreateVariant, DeriveVariant, CheckInData,
	// DeriveConfigVersion) and the check-then-create of named resources
	// (named), so concurrent callers never allocate duplicate numbers or
	// register one name twice. Lock order: fw.mu may be held when numMu
	// is taken (CheckInData holds fw.mu for reading across its whole
	// batch so the reservation check stays true until the commit); never
	// the reverse. Store stripe locks are always the innermost.
	numMu sync.Mutex

	// saveMu serializes Save/SaveTo: the commit epoch is a
	// read-modify-write on the backend. Designers never touch it.
	// The fields below are guarded by saveMu. committed is the manifest
	// of the last commit this instance wrote to lastSaveTo, and
	// committedCURRENT its encoded bytes: a save whose backend's CURRENT
	// still holds exactly those bytes continues from committed without
	// decoding it, and may write a delta. Any mismatch (first save,
	// different backend, loaded framework, a foreign or failed commit)
	// decodes CURRENT and falls back to a full base snapshot. releaseHdr
	// and releaseSum are the encoded framework@<epoch> header and its
	// checksum, encoded on the first save. baseBytes is the size of the
	// last full base this instance wrote and overlayBytes what its
	// overlays over that base have written since: SaveTo's budget for
	// choosing an overlay over a new base.
	saveMu           sync.Mutex
	lastSaveTo       backend.Backend
	committed        backend.Manifest
	committedCURRENT []byte
	releaseHdr       []byte
	releaseSum       string
	baseBytes        int
	overlayBytes     int
	maxDeltaChain    int // 0 means defaultMaxDeltaChain

	// batchPool recycles oms.Batch builders for the hot grouped paths
	// (CheckInData, CreateDesignObject): one checkin = one small batch,
	// and pooling keeps the builder allocation off the per-checkin cost.
	batchPool sync.Pool

	// cc is the feed-driven consistency-check cache (see
	// CheckConsistency): the last sweep's verdict plus the feed position
	// it was computed at. Guarded by cc.mu — its own lock, because a
	// consistency check must not stall designers holding fw.mu.
	cc struct {
		mu    sync.Mutex
		valid bool
		lsn   uint64
		cache []Inconsistency
	}

	// mu serializes the framework's check-then-act sequences against the
	// store: Reserve, ReleaseReservation and Publish hold it for writing
	// around their reservation check and commit, CheckInData holds it for
	// reading from its reservation check until its batch has committed,
	// and SubmitHierarchyTyped holds it across its cycle check and edge
	// create. The store stays the only record of what those sequences
	// decide; mu itself guards only the enactment cache below.
	mu sync.RWMutex
	// enactments: cell version OID -> flow enactment. Activity execution
	// state is per-process session state, never persisted or replicated.
	enactments map[oms.OID]*flow.Enactment

	// flowMemo caches decoded flows by Flow object OID (*flow.Flow), so
	// every enactment of a flow shares one frozen instance. It is filled
	// only from the store, and a Flow object's spec never changes once
	// committed, so an entry can never go stale — which is also why a
	// replica view may fill it.
	flowMemo sync.Map

	rel relNames

	// blobs is the optional content-addressed design-data store (see
	// blobs.go); blobThreshold is the checkin spill threshold in bytes.
	// Both are set once by EnableBlobStore, before concurrent use.
	blobs         *blobstore.Store
	blobThreshold int

	// upMu guards the per-cell-version async-upload ledger behind the
	// Publish durability gate: uploads counts blob uploads still in
	// flight, upCond wakes publishers waiting for them to drain. Lock
	// order: fw.mu (and numMu) may be held when upMu is taken — never the
	// reverse; upMu is a leaf.
	upMu    sync.Mutex
	upCond  *sync.Cond
	uploads map[oms.OID]*cvUploads

	// statReserveConflicts counts rejected reservations (section 3.1).
	// An obs.Counter cell so ReserveConflicts and a /metrics scrape read
	// it without touching fw.mu.
	statReserveConflicts obs.Counter

	// metrics holds the checkin-pipeline instruments (see metrics.go).
	metrics fwMetrics
}

// New creates a framework instance of the given release with a fresh OMS
// database enforcing the Figure 1 information model.
func New(release Release) (*Framework, error) {
	if release != Release30 && release != Release40 {
		return nil, fmt.Errorf("jcf: unknown release %d", int(release))
	}
	model := otod.JCFModel()
	schema, err := model.Schema()
	if err != nil {
		return nil, fmt.Errorf("jcf: building schema: %w", err)
	}
	fw := &Framework{
		release:    release,
		model:      model,
		store:      oms.NewStore(schema),
		enactments: map[oms.OID]*flow.Enactment{},
		uploads:    map[oms.OID]*cvUploads{},
	}
	fw.upCond = sync.NewCond(&fw.upMu)
	r := func(name, from, to string) string {
		return model.SchemaRelName(otod.Relationship{Name: name, From: from, To: to})
	}
	fw.rel = relNames{
		memberOf:        r("memberOf", "User", "Team"),
		supports:        r("supports", "Team", "Project"),
		has:             r("has", "Project", "Cell"),
		cellHasVersion:  r("hasVersion", "Cell", "CellVersion"),
		compOf:          r("compOf", "CellVersion", "CellVersion"),
		attachedFlow:    r("attachedFlow", "CellVersion", "Flow"),
		attachedTeam:    r("attachedTeam", "CellVersion", "Team"),
		hasVariant:      r("hasVariant", "CellVersion", "Variant"),
		variantPrecedes: r("precedes", "Variant", "Variant"),
		uses:            r("uses", "Variant", "DesignObject"),
		doHasVersion:    r("hasVersion", "DesignObject", "DesignObjectVersion"),
		ofViewType:      r("ofViewType", "DesignObject", "ViewType"),
		equivalent:      r("equivalent", "DesignObjectVersion", "DesignObjectVersion"),
		derived:         r("derived", "DesignObjectVersion", "DesignObjectVersion"),
		cfgHasVersion:   r("hasVersion", "Configuration", "ConfigVersion"),
		cfgPrecedes:     r("precedes", "ConfigVersion", "ConfigVersion"),
		hasEntry:        r("hasEntry", "ConfigVersion", "DesignObjectVersion"),
		configures:      r("configures", "Configuration", "CellVersion"),
		edgeParent:      r("edgeParent", "HierEdge", "CellVersion"),
		edgeChild:       r("edgeChild", "HierEdge", "CellVersion"),
		shares:          r("shares", "Project", "Cell"),
		contains:        r("contains", "Flow", "ActivityProxy"),
		proxies:         r("proxies", "ActivityProxy", "Activity"),
		performedBy:     r("performedBy", "Activity", "Tool"),
	}
	return fw, nil
}

// getBatch fetches a pooled, reset batch builder; putBatch returns it.
// Safe because Apply takes no lasting references into the batch (staged
// values are either transferred into store objects or dropped) and Reset
// zeroes every slot before the batch is reused.
func (fw *Framework) getBatch() *oms.Batch {
	if b, ok := fw.batchPool.Get().(*oms.Batch); ok {
		return b
	}
	return oms.NewBatch()
}

func (fw *Framework) putBatch(b *oms.Batch) {
	b.Reset()
	fw.batchPool.Put(b)
}

// link commits one relationship instance as a one-op batch. Linking a
// pair that is already linked changes nothing and publishes nothing.
// The batch lives on the stack, not in batchPool, so every call
// allocates the same (its ops slice): under the race detector
// sync.Pool drops Puts at random.
func (fw *Framework) link(rel string, from, to oms.OID) error {
	var b oms.Batch
	b.Link(rel, from, to)
	_, err := fw.store.Apply(&b)
	return err
}

// Release returns the framework release level.
func (fw *Framework) Release() Release { return fw.release }

// MetadataOps reports the cumulative OMS operation count — the metric
// behind the "performance of metadata operations ... is sufficiently high"
// statement of section 3.6.
func (fw *Framework) MetadataOps() int64 {
	ops, _, _ := fw.store.Stats()
	return ops
}

// BlobTraffic reports cumulative design-data bytes copied into and out of
// the database.
func (fw *Framework) BlobTraffic() (in, out int64) {
	_, in, out = fw.store.Stats()
	return in, out
}

// ReserveConflicts reports the number of rejected workspace reservations.
func (fw *Framework) ReserveConflicts() int64 {
	return fw.statReserveConflicts.Load()
}

// --- resources (administrator API) ---------------------------------------

// named creates a resource object with a unique name within its class.
// When stage is non-nil it adds further ops to the same batch, keyed to
// the new object's placeholder OID, so the creation and its wiring
// commit as ONE atomic group — no reader ever observes the object
// half-linked. numMu spans the duplicate check and the Apply, so two
// concurrent creations of one name cannot both pass the check.
func (fw *Framework) named(class, name string, stage func(b *oms.Batch, oid oms.OID)) (oms.OID, error) {
	if err := fw.guardWrite(); err != nil {
		return oms.InvalidOID, err
	}
	if name == "" {
		return oms.InvalidOID, fmt.Errorf("jcf: empty %s name", class)
	}
	fw.numMu.Lock()
	defer fw.numMu.Unlock()
	if hits := fw.store.FindByAttr(class, "name", oms.S(name)); len(hits) > 0 {
		return oms.InvalidOID, fmt.Errorf("%w: %s %q", ErrExists, class, name)
	}
	b := fw.getBatch()
	defer fw.putBatch(b)
	oid := b.Create(class, map[string]oms.Value{"name": oms.S(name)})
	if stage != nil {
		stage(b, oid)
	}
	created, err := fw.store.Apply(b)
	if err != nil {
		return oms.InvalidOID, err
	}
	return created[0], nil
}

// CreateUser registers a user resource.
func (fw *Framework) CreateUser(name string) (oms.OID, error) {
	return fw.named("User", name, nil)
}

// CreateTeam registers a team resource.
func (fw *Framework) CreateTeam(name string) (oms.OID, error) {
	return fw.named("Team", name, nil)
}

// CreateTool registers a tool resource (an integrated or encapsulated
// tool; the hybrid framework registers the three FMCAD tools here).
func (fw *Framework) CreateTool(name string) (oms.OID, error) {
	return fw.named("Tool", name, nil)
}

// CreateViewType registers a view type resource.
func (fw *Framework) CreateViewType(name string) (oms.OID, error) {
	return fw.named("ViewType", name, nil)
}

// AddMember puts a user into a team.
func (fw *Framework) AddMember(team oms.OID, user oms.OID) error {
	if err := fw.guardWrite(); err != nil {
		return err
	}
	return fw.link(fw.rel.memberOf, user, team)
}

// lookupNamed finds a resource by class and name.
func (fw *Framework) lookupNamed(class, name string) (oms.OID, error) {
	hits := fw.store.FindByAttr(class, "name", oms.S(name))
	if len(hits) == 0 {
		return oms.InvalidOID, fmt.Errorf("%w: %s %q", ErrNotFound, class, name)
	}
	return hits[0], nil
}

// User returns the OID of a user resource by name.
func (fw *Framework) User(name string) (oms.OID, error) { return fw.lookupNamed("User", name) }

// Team returns the OID of a team resource by name.
func (fw *Framework) Team(name string) (oms.OID, error) { return fw.lookupNamed("Team", name) }

// ViewType returns the OID of a view type resource by name.
func (fw *Framework) ViewType(name string) (oms.OID, error) { return fw.lookupNamed("ViewType", name) }

// IsMember reports whether user (by OID) belongs to team.
func (fw *Framework) IsMember(team, user oms.OID) bool {
	for _, t := range fw.store.Targets(fw.rel.memberOf, user) {
		if t == team {
			return true
		}
	}
	return false
}

// Members returns the user names of a team, sorted.
func (fw *Framework) Members(team oms.OID) []string {
	var out []string
	for _, u := range fw.store.Sources(fw.rel.memberOf, team) {
		out = append(out, fw.store.GetString(u, "name"))
	}
	sort.Strings(out)
	return out
}

// RegisterFlow freezes the given flow and registers it as a framework
// resource. Flows become metadata fully under framework control; they are
// fixed and cannot be modified afterwards (section 2.1). The flow object
// (carrying the frozen flow as its spec), its activities and their tools
// are materialized as OMS objects.
func (fw *Framework) RegisterFlow(f *flow.Flow) (oms.OID, error) {
	if err := fw.guardWrite(); err != nil {
		return oms.InvalidOID, err
	}
	if err := f.Freeze(); err != nil {
		return oms.InvalidOID, fmt.Errorf("jcf: registering flow: %w", err)
	}
	spec, err := specOf(f)
	if err != nil {
		return oms.InvalidOID, err
	}
	encoded, err := json.Marshal(spec)
	if err != nil {
		return oms.InvalidOID, fmt.Errorf("jcf: registering flow: %w", err)
	}
	// The flow object, its spec, its activities and their proxies commit
	// as ONE batch, so the queryable metadata appears atomically: no
	// concurrent reader, snapshot or replica ever sees a Flow object
	// whose spec or activities are still being wired up, and any failure
	// leaves no half-materialized flow to collide with a retry.
	return fw.named("Flow", f.Name, func(b *oms.Batch, flowPH oms.OID) {
		b.Set(flowPH, "spec", oms.S(string(encoded)))
		for _, a := range spec.Activities {
			actPH := b.CreateOwned("Activity", map[string]oms.Value{"name": oms.S(f.Name + "/" + a.Name)})
			proxyPH := b.CreateOwned("ActivityProxy", map[string]oms.Value{"name": oms.S(f.Name + "/" + a.Name + "#proxy")})
			b.Link(fw.rel.contains, flowPH, proxyPH)
			b.Link(fw.rel.proxies, proxyPH, actPH)
			if a.Tool != "" {
				if toolOID, err := fw.lookupNamed("Tool", a.Tool); err == nil {
					b.Link(fw.rel.performedBy, actPH, toolOID)
				}
			}
		}
	})
}

// flowSpec is the JSON shape of a frozen flow: the Flow object's spec
// attribute.
type flowSpec struct {
	Name       string              `json:"name"`
	Activities []flow.Activity     `json:"activities"`
	Precedes   map[string][]string `json:"precedes"`
}

// specOf captures a frozen flow's activities and precedence.
func specOf(f *flow.Flow) (flowSpec, error) {
	spec := flowSpec{Name: f.Name, Precedes: map[string][]string{}}
	for _, name := range f.Activities() {
		a, err := f.Activity(name)
		if err != nil {
			return flowSpec{}, err
		}
		spec.Activities = append(spec.Activities, a)
		if succ := f.Successors(name); len(succ) > 0 {
			spec.Precedes[name] = succ
		}
	}
	return spec, nil
}

// build rebuilds the frozen flow a spec describes.
func (s flowSpec) build() (*flow.Flow, error) {
	f := flow.New(s.Name)
	for _, a := range s.Activities {
		if err := f.AddActivity(a); err != nil {
			return nil, fmt.Errorf("jcf: flow %q: %w", s.Name, err)
		}
	}
	for before, afters := range s.Precedes {
		for _, after := range afters {
			if err := f.AddPrecedes(before, after); err != nil {
				return nil, fmt.Errorf("jcf: flow %q: %w", s.Name, err)
			}
		}
	}
	if err := f.Freeze(); err != nil {
		return nil, fmt.Errorf("jcf: flow %q: %w", s.Name, err)
	}
	return f, nil
}

// Flow returns a registered flow by name, decoded from the spec its Flow
// object carries.
func (fw *Framework) Flow(name string) (*flow.Flow, error) {
	oid, err := fw.lookupNamed("Flow", name)
	if err != nil {
		return nil, err
	}
	if f, ok := fw.flowMemo.Load(oid); ok {
		return f.(*flow.Flow), nil
	}
	encoded := fw.store.GetString(oid, "spec")
	if encoded == "" {
		return nil, fmt.Errorf("%w: flow %q has no spec", ErrNotFound, name)
	}
	var spec flowSpec
	if err := json.Unmarshal([]byte(encoded), &spec); err != nil {
		return nil, fmt.Errorf("jcf: flow %q: %w", name, err)
	}
	f, err := spec.build()
	if err != nil {
		return nil, err
	}
	memo, _ := fw.flowMemo.LoadOrStore(oid, f)
	return memo.(*flow.Flow), nil
}

// Flows returns the registered flow names, sorted.
func (fw *Framework) Flows() []string {
	var out []string
	for _, oid := range fw.store.All("Flow") {
		if fw.store.GetString(oid, "spec") != "" {
			out = append(out, fw.store.GetString(oid, "name"))
		}
	}
	sort.Strings(out)
	return out
}
