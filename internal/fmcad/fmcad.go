// Package fmcad implements the FMCAD ECAD framework of the paper — a
// faithful stand-in for the widespread commercial framework (Cadence Design
// Framework II) whose proprietary endpoints no longer exist.
//
// FMCAD stores design data in *libraries*: a library is a real UNIX
// directory whose contents are described by a single .meta file (the
// metadata). The logical objects are cells, views, cellviews, cellview
// versions and configs (section 2.2):
//
//   - a Cell is the basic, logical design object;
//   - a View is one type of representation (schematic, layout, symbol) and
//     is of one viewtype, which associates it with a tool;
//   - a Cellview is the virtual data file for a (cell, view) pair;
//   - a CellviewVersion is the data file of a cellview at a particular
//     time, created by checkout/checkin, and maps to a design file;
//   - a Config is a collection of related cellview versions with at most
//     one version per cellview.
//
// Concurrency follows the paper exactly: a cellview can be checked out by
// only one user at a time, so two users can never work on two versions of
// the same cellview in parallel; metadata refresh is *manual* (Session
// snapshots go stale until Refresh is called), which is the source of the
// "severe locking problems" the paper reports in sections 2.2 and 3.1.
// Hierarchy is stored inside the design files (inst lines), not in the
// metadata, and is bound dynamically against default versions — flexible,
// but with no what-belongs-to-what history (section 3.5).
//
// In memory, published metadata is immutable. A mutation builds a new root
// that shares every record it does not change, writes it to .meta, and
// only then publishes it; a Session snapshot is just the root published
// when it was taken, so opening or refreshing one copies nothing.
//
// On disk, .meta is compact JSON (struct fields in declaration order, map
// keys sorted). Every mutation rewrites the whole file under the library
// mutex: the new content goes to .meta.tmp, which is then renamed over
// .meta, so a reader sees either the old or the new file, never a torn
// one. The encoder keeps each cell's bytes and re-encodes only the cells
// a mutation changed. There is no fsync, so a crash can lose the latest
// mutations. A design file is written before the metadata that names it,
// so .meta never names a version with no file behind it.
package fmcad

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// MetaFileName is the single metadata file per library — the paper's
// "only one .meta file per project" bottleneck.
const MetaFileName = ".meta"

// Errors reported by the framework. ErrLocked is the checkout conflict the
// concurrency experiments count.
var (
	ErrLocked    = errors.New("fmcad: cellview is checked out by another user")
	ErrStale     = errors.New("fmcad: session metadata is stale; refresh required")
	ErrNotFound  = errors.New("fmcad: object not found")
	ErrExists    = errors.New("fmcad: object already exists")
	ErrNotLocked = errors.New("fmcad: cellview is not checked out by this user")
	ErrCorrupt   = errors.New("fmcad: corrupt library metadata")
)

// cellviewMeta is the per-cellview record in the .meta file.
type cellviewMeta struct {
	Versions []int                        `json:"versions"` // ascending
	Default  int                          `json:"default"`  // highest checked-in version
	LockedBy string                       `json:"locked_by,omitempty"`
	Props    map[string]map[string]string `json:"props,omitempty"` // "v<N>" -> name -> value
}

// cellMeta is the per-cell record.
type cellMeta struct {
	Cellviews map[string]*cellviewMeta `json:"cellviews"` // view name -> record
}

// meta is the full content of the .meta file.
type meta struct {
	Name    string                    `json:"name"`
	Seq     int64                     `json:"seq"`   // bumped on every change; staleness marker
	Views   map[string]string         `json:"views"` // view name -> viewtype
	Cells   map[string]*cellMeta      `json:"cells"`
	Configs map[string]map[string]int `json:"configs"` // config -> "cell/view" -> version
}

func newMeta(name string) *meta {
	return &meta{
		Name:    name,
		Views:   map[string]string{},
		Cells:   map[string]*cellMeta{},
		Configs: map[string]map[string]int{},
	}
}

// next returns the root a mutation builds on: a copy of m whose top-level
// maps are shallow clones. Published records are immutable, and next
// shares them, so a mutation writes only these maps and the records it
// replaced with copies (editCellview, or a maps.Clone of a config).
func (m *meta) next() *meta {
	return &meta{
		Name:    m.Name,
		Seq:     m.Seq,
		Views:   maps.Clone(m.Views),
		Cells:   maps.Clone(m.Cells),
		Configs: maps.Clone(m.Configs),
	}
}

// editCellview replaces the existing (cell, view) record of m, a root from
// next, with a copy the mutation may write, and returns the copy. Its
// Versions are clipped, so an append reallocates instead of writing the
// shared array; its Props map is a shallow clone, so an inner map must be
// cloned before it is written.
func (m *meta) editCellview(cell, view string) *cellviewMeta {
	c := &cellMeta{Cellviews: maps.Clone(m.Cells[cell].Cellviews)}
	cv := *c.Cellviews[view]
	cv.Versions = slices.Clip(cv.Versions)
	cv.Props = maps.Clone(cv.Props)
	c.Cellviews[view] = &cv
	m.Cells[cell] = c
	return &cv
}

func (m *meta) cellview(cell, view string) (*cellviewMeta, error) {
	c, ok := m.Cells[cell]
	if !ok {
		return nil, fmt.Errorf("%w: cell %q", ErrNotFound, cell)
	}
	cv, ok := c.Cellviews[view]
	if !ok {
		return nil, fmt.Errorf("%w: cellview %s/%s", ErrNotFound, cell, view)
	}
	return cv, nil
}

// Library is an FMCAD design library: a directory plus its .meta file.
// The Library value is the authoritative, serialized access point; user
// Sessions each hold a possibly-stale snapshot of the metadata.
type Library struct {
	dir string

	mu   sync.Mutex
	meta *meta       // published root; never written, only replaced
	enc  metaEncoder // .meta encoder with its per-cell cache

	// statConflicts counts rejected checkouts; the section 3.1 experiment
	// reads it.
	statConflicts int64
}

// Create makes a new library directory at dir (which must not already
// contain a library) and writes an empty .meta. The .meta appears by
// linking a private temp file to its name, so of concurrent Creates on one
// directory exactly one succeeds; the others fail with ErrExists.
func Create(dir, name string) (*Library, error) {
	if name == "" {
		return nil, fmt.Errorf("fmcad: empty library name")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fmcad: create library: %w", err)
	}
	l := &Library{dir: dir, meta: newMeta(name)}
	f, err := os.CreateTemp(dir, MetaFileName+".new*")
	if err != nil {
		return nil, fmt.Errorf("fmcad: create library: %w", err)
	}
	defer os.Remove(f.Name()) // after the link, .meta keeps the content
	_, err = f.Write(l.enc.encode(l.meta))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Link(f.Name(), filepath.Join(dir, MetaFileName))
	}
	if errors.Is(err, fs.ErrExist) {
		return nil, fmt.Errorf("%w: library at %s", ErrExists, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("fmcad: create library: %w", err)
	}
	return l, nil
}

// Open loads an existing library from dir. A .meta that does not parse,
// or holds a null cell, cellview or config record, fails with ErrCorrupt.
func Open(dir string) (*Library, error) {
	data, err := os.ReadFile(filepath.Join(dir, MetaFileName))
	if err != nil {
		return nil, fmt.Errorf("fmcad: open library: %w", err)
	}
	m, err := decodeMeta(data)
	if err != nil {
		return nil, fmt.Errorf("fmcad: open library %s: %w", dir, err)
	}
	return &Library{dir: dir, meta: m}, nil
}

// Name returns the library name.
func (l *Library) Name() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.meta.Name
}

// Dir returns the library directory (the ".Project" of Figure 2).
func (l *Library) Dir() string { return l.dir }

// Seq returns the current metadata sequence number.
func (l *Library) Seq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.meta.Seq
}

// Conflicts returns the cumulative count of rejected checkouts.
func (l *Library) Conflicts() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.statConflicts
}

// mutate applies fn to a new root built from the current metadata (see
// next) under the lock, bumps the sequence number and persists on success.
// When fn returns an error, the new root is dropped.
func (l *Library) mutate(fn func(m *meta) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	next := l.meta.next()
	if err := fn(next); err != nil {
		return err
	}
	return l.commitLocked(next)
}

// commitLocked bumps the sequence number of next, writes it to .meta and
// only then publishes it as the library's root; caller holds l.mu. If the
// write fails, next is dropped, so memory never runs ahead of the file.
func (l *Library) commitLocked(next *meta) error {
	next.Seq++
	tmp := filepath.Join(l.dir, MetaFileName+".tmp")
	if err := os.WriteFile(tmp, l.enc.encode(next), 0o644); err != nil {
		return fmt.Errorf("fmcad: flush meta: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, MetaFileName)); err != nil {
		return fmt.Errorf("fmcad: flush meta: %w", err)
	}
	l.meta = next
	return nil
}

// snapshot returns the current root. Published roots are never written,
// so the caller may read it without the lock for as long as it likes.
func (l *Library) snapshot() *meta {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.meta
}

// --- schema-level operations (views, cells, cellviews) -------------------

// DefineView declares a view name of the given viewtype (e.g. view
// "schematic" of viewtype "schematic", or "layout.fast" of viewtype
// "layout" — the paper notes viewtypes can be switched with the same tool).
func (l *Library) DefineView(view, viewtype string) error {
	if view == "" || viewtype == "" {
		return fmt.Errorf("fmcad: empty view or viewtype")
	}
	if strings.ContainsAny(view, "/\\:") {
		return fmt.Errorf("fmcad: bad view name %q", view)
	}
	return l.mutate(func(m *meta) error {
		if _, dup := m.Views[view]; dup {
			return fmt.Errorf("%w: view %q", ErrExists, view)
		}
		m.Views[view] = viewtype
		return nil
	})
}

// Viewtype returns the viewtype of a view.
func (l *Library) Viewtype(view string) (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	vt, ok := l.meta.Views[view]
	if !ok {
		return "", fmt.Errorf("%w: view %q", ErrNotFound, view)
	}
	return vt, nil
}

// CreateCell registers a new cell.
func (l *Library) CreateCell(cell string) error {
	if cell == "" || strings.ContainsAny(cell, "/\\:") {
		return fmt.Errorf("fmcad: bad cell name %q", cell)
	}
	return l.mutate(func(m *meta) error {
		if _, dup := m.Cells[cell]; dup {
			return fmt.Errorf("%w: cell %q", ErrExists, cell)
		}
		m.Cells[cell] = &cellMeta{Cellviews: map[string]*cellviewMeta{}}
		return nil
	})
}

// CreateCellview creates the (cell, view) cellview with an empty initial
// version 1 file. The file is written before the metadata names it, all
// under the library lock: until the record commits, the name is free and
// another CreateCellview of the same cellview could write the same path.
func (l *Library) CreateCellview(cell, view string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.meta.Cells[cell]
	if !ok {
		return fmt.Errorf("%w: cell %q", ErrNotFound, cell)
	}
	if _, ok := l.meta.Views[view]; !ok {
		return fmt.Errorf("%w: view %q", ErrNotFound, view)
	}
	if _, dup := c.Cellviews[view]; dup {
		return fmt.Errorf("%w: cellview %s/%s", ErrExists, cell, view)
	}
	path := l.versionPath(cell, view, 1)
	if err := writeDesignFile(path, nil); err != nil {
		return fmt.Errorf("fmcad: create cellview: %w", err)
	}
	next := l.meta.next()
	c = &cellMeta{Cellviews: maps.Clone(c.Cellviews)}
	c.Cellviews[view] = &cellviewMeta{Versions: []int{1}, Default: 1, Props: map[string]map[string]string{}}
	next.Cells[cell] = c
	if err := l.commitLocked(next); err != nil {
		_ = os.Remove(path) //lint:allow noerrdrop no metadata names the file; a leftover is overwritten by the next create
		return err
	}
	return nil
}

// writeDesignFile writes a design file, creating its directory.
func writeDesignFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// versionPath returns the design file path for a cellview version (the
// ".File" of Figure 2).
func (l *Library) versionPath(cell, view string, num int) string {
	return filepath.Join(l.dir, cell, view, fmt.Sprintf("v%d.cv", num))
}

// VersionPath exposes the design-file location; native FMCAD tools read it
// directly (the fast path the hybrid framework loses, section 3.6).
func (l *Library) VersionPath(cell, view string, num int) string {
	return l.versionPath(cell, view, num)
}

// Cells returns all cell names, sorted.
func (l *Library) Cells() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.meta.Cells))
	for c := range l.meta.Cells {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Views returns all view names, sorted.
func (l *Library) Views() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.meta.Views))
	for v := range l.meta.Views {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Cellviews returns the view names that exist for a cell, sorted.
func (l *Library) Cellviews(cell string) ([]string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.meta.Cells[cell]
	if !ok {
		return nil, fmt.Errorf("%w: cell %q", ErrNotFound, cell)
	}
	out := make([]string, 0, len(c.Cellviews))
	for v := range c.Cellviews {
		out = append(out, v)
	}
	sort.Strings(out)
	return out, nil
}

// Versions returns the version numbers of a cellview, ascending.
func (l *Library) Versions(cell, view string) ([]int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cv, err := l.meta.cellview(cell, view)
	if err != nil {
		return nil, err
	}
	return append([]int(nil), cv.Versions...), nil
}

// DefaultVersion returns the default (latest checked-in) version number.
// Dynamic hierarchy binding always uses this — which is exactly why FMCAD
// cannot reconstruct historic configurations (section 2.2).
func (l *Library) DefaultVersion(cell, view string) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cv, err := l.meta.cellview(cell, view)
	if err != nil {
		return 0, err
	}
	return cv.Default, nil
}

// ReadVersion returns the design file content of a specific version,
// reading the file directly (native FMCAD access).
func (l *Library) ReadVersion(cell, view string, num int) ([]byte, error) {
	l.mu.Lock()
	cv, err := l.meta.cellview(cell, view)
	if err == nil {
		found := false
		for _, v := range cv.Versions {
			if v == num {
				found = true
				break
			}
		}
		if !found {
			err = fmt.Errorf("%w: version %d of %s/%s", ErrNotFound, num, cell, view)
		}
	}
	l.mu.Unlock()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(l.versionPath(cell, view, num))
	if err != nil {
		return nil, fmt.Errorf("fmcad: read version: %w", err)
	}
	return data, nil
}

// LockedBy reports which user holds the checkout on a cellview ("" if
// free).
func (l *Library) LockedBy(cell, view string) (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cv, err := l.meta.cellview(cell, view)
	if err != nil {
		return "", err
	}
	return cv.LockedBy, nil
}

// --- properties -----------------------------------------------------------

func versionKey(num int) string { return fmt.Sprintf("v%d", num) }

// SetProperty attaches a name=value property to a cellview version.
func (l *Library) SetProperty(cell, view string, num int, name, value string) error {
	return l.mutate(func(m *meta) error {
		cv, err := m.cellview(cell, view)
		if err != nil {
			return err
		}
		if !containsInt(cv.Versions, num) {
			return fmt.Errorf("%w: version %d of %s/%s", ErrNotFound, num, cell, view)
		}
		cv = m.editCellview(cell, view)
		if cv.Props == nil {
			cv.Props = map[string]map[string]string{}
		}
		k := versionKey(num)
		props := maps.Clone(cv.Props[k])
		if props == nil {
			props = map[string]string{}
		}
		props[name] = value
		cv.Props[k] = props
		return nil
	})
}

// GetProperty reads a property; ok is false when absent.
func (l *Library) GetProperty(cell, view string, num int, name string) (value string, ok bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cv, err := l.meta.cellview(cell, view)
	if err != nil {
		return "", false, err
	}
	props, exists := cv.Props[versionKey(num)]
	if !exists {
		return "", false, nil
	}
	v, ok := props[name]
	return v, ok, nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// --- configs ----------------------------------------------------------------

func cvKey(cell, view string) string { return cell + "/" + view }

// CreateConfig creates an empty named config.
func (l *Library) CreateConfig(name string) error {
	if name == "" {
		return fmt.Errorf("fmcad: empty config name")
	}
	return l.mutate(func(m *meta) error {
		if _, dup := m.Configs[name]; dup {
			return fmt.Errorf("%w: config %q", ErrExists, name)
		}
		m.Configs[name] = map[string]int{}
		return nil
	})
}

// AddToConfig binds a cellview version into a config. At most one version
// of each cellview may be in a config; a second Add for the same cellview
// replaces the binding (it does not duplicate it).
func (l *Library) AddToConfig(config, cell, view string, num int) error {
	return l.mutate(func(m *meta) error {
		cfg, ok := m.Configs[config]
		if !ok {
			return fmt.Errorf("%w: config %q", ErrNotFound, config)
		}
		cv, err := m.cellview(cell, view)
		if err != nil {
			return err
		}
		if !containsInt(cv.Versions, num) {
			return fmt.Errorf("%w: version %d of %s/%s", ErrNotFound, num, cell, view)
		}
		cfg = maps.Clone(cfg)
		cfg[cvKey(cell, view)] = num
		m.Configs[config] = cfg
		return nil
	})
}

// ConfigEntries returns the direct cellview->version bindings of a
// config (not following nested configs), as a sorted slice of
// "cell/view=vN" strings for stable output.
func (l *Library) ConfigEntries(config string) ([]string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cfg, ok := l.meta.Configs[config]
	if !ok {
		return nil, fmt.Errorf("%w: config %q", ErrNotFound, config)
	}
	out := make([]string, 0, len(cfg))
	for k, v := range cfg {
		if strings.HasPrefix(k, configRefPrefix) {
			continue
		}
		out = append(out, fmt.Sprintf("%s=v%d", k, v))
	}
	sort.Strings(out)
	return out, nil
}

// ConfigVersion returns the version a config binds for a cellview.
func (l *Library) ConfigVersion(config, cell, view string) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cfg, ok := l.meta.Configs[config]
	if !ok {
		return 0, fmt.Errorf("%w: config %q", ErrNotFound, config)
	}
	num, ok := cfg[cvKey(cell, view)]
	if !ok {
		return 0, fmt.Errorf("%w: %s/%s in config %q", ErrNotFound, cell, view, config)
	}
	return num, nil
}

// Nested configs ("Config in Config" in Figure 2) are stored as entries
// whose key carries a marker prefix instead of a cell/view pair.
const configRefPrefix = "config:"

// AddConfigToConfig nests child inside parent. Cycles are rejected: a
// config may not transitively contain itself.
func (l *Library) AddConfigToConfig(parent, child string) error {
	if parent == child {
		return fmt.Errorf("fmcad: config %q cannot contain itself", parent)
	}
	return l.mutate(func(m *meta) error {
		cfg, ok := m.Configs[parent]
		if !ok {
			return fmt.Errorf("%w: config %q", ErrNotFound, parent)
		}
		if _, ok := m.Configs[child]; !ok {
			return fmt.Errorf("%w: config %q", ErrNotFound, child)
		}
		if configReaches(m, child, parent) {
			return fmt.Errorf("fmcad: config cycle: %q already contains %q", child, parent)
		}
		cfg = maps.Clone(cfg)
		cfg[configRefPrefix+child] = 0
		m.Configs[parent] = cfg
		return nil
	})
}

// configReaches reports whether `from` transitively contains `to`;
// caller holds l.mu (via mutate).
func configReaches(m *meta, from, to string) bool {
	if from == to {
		return true
	}
	for key := range m.Configs[from] {
		if child, ok := strings.CutPrefix(key, configRefPrefix); ok {
			if configReaches(m, child, to) {
				return true
			}
		}
	}
	return false
}

// SubConfigs returns the configs nested directly inside a config, sorted.
func (l *Library) SubConfigs(config string) ([]string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cfg, ok := l.meta.Configs[config]
	if !ok {
		return nil, fmt.Errorf("%w: config %q", ErrNotFound, config)
	}
	var out []string
	for key := range cfg {
		if child, ok := strings.CutPrefix(key, configRefPrefix); ok {
			out = append(out, child)
		}
	}
	sort.Strings(out)
	return out, nil
}

// ConfigClosure resolves a config including every nested config,
// returning all cellview-version bindings as sorted "cell/view=vN"
// strings. Inner (deeper) bindings are overridden by outer ones when the
// same cellview appears twice — the usual expansion rule.
func (l *Library) ConfigClosure(config string) ([]string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.meta.Configs[config]; !ok {
		return nil, fmt.Errorf("%w: config %q", ErrNotFound, config)
	}
	bindings := map[string]int{}
	var walk func(name string)
	walk = func(name string) {
		// Children first so the parent's own bindings win.
		for key := range l.meta.Configs[name] {
			if child, ok := strings.CutPrefix(key, configRefPrefix); ok {
				walk(child)
			}
		}
		for key, num := range l.meta.Configs[name] {
			if !strings.HasPrefix(key, configRefPrefix) {
				bindings[key] = num
			}
		}
	}
	walk(config)
	out := make([]string, 0, len(bindings))
	for k, v := range bindings {
		out = append(out, fmt.Sprintf("%s=v%d", k, v))
	}
	sort.Strings(out)
	return out, nil
}
