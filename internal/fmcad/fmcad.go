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
// that shares every record it does not change, writes it to disk, and only
// then publishes it; a Session snapshot is just the root published when it
// was taken, so opening or refreshing one copies nothing. The cells of a
// library and the per-version properties of a cellview are persistent
// maps (pmap), so a mutation copies the path to each key it writes, not
// the map: its cost does not grow with the library or the history.
//
// On disk, the metadata is a checkpoint plus a journal, under the library
// mutex. .meta is the checkpoint: compact JSON (struct fields in
// declaration order, map keys sorted). Each mutation appends one
// CRC-framed record to .meta.log holding the new seq and only what the
// mutation wrote: views set, cells created, for each cellview it touched
// the versions appended, its default, its lock and the properties set,
// and configs set. A record's size follows the mutation, not the history
// of the cell it edits. The first record after a checkpoint goes out
// behind a header that names the checkpoint by seq and checksum. Once
// the log is larger than both .meta and checkpointFloor, the next
// mutation writes the whole root to .meta.tmp and renames it over .meta
// instead, then truncates the log. Open decodes .meta and replays the
// log: a log whose header names another .meta is ignored, records with a
// seq the checkpoint already holds are skipped, the next seq is checked
// against the root and applied whole, and the first torn frame, bad
// checksum, invalid record or seq gap ends the replay, so a torn tail is
// never loaded. A failed append is cut back off the log and publishes
// nothing, and the log is cut to its valid prefix before the first
// append after Open. There is no fsync, so a crash can lose the latest
// mutations. A design file is written before the metadata that names
// it, so the metadata never names a version with no file behind it.
package fmcad

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MetaFileName is the single metadata file per library — the paper's
// "only one .meta file per project" bottleneck. It is the checkpoint;
// logFileName is the journal of the mutations since.
const (
	MetaFileName = ".meta"
	logFileName  = MetaFileName + ".log"
)

// checkpointFloor is the journal size below which a commit never
// checkpoints: without it, a small library whose .meta is a few KiB would
// rewrite .meta every few commits.
const checkpointFloor = 64 << 10

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
	Versions []int                   `json:"versions"` // ascending
	Default  int                     `json:"default"`  // highest checked-in version
	LockedBy string                  `json:"locked_by,omitempty"`
	Props    pmap[map[string]string] `json:"props,omitempty"` // "v<N>" -> name -> value
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
	Cells   pmap[*cellMeta]           `json:"cells"`
	Configs map[string]map[string]int `json:"configs"` // config -> "cell/view" -> version

	// edits names what this root wrote over the one it was built from
	// (see next): exactly what its journal record holds.
	edits edits
}

// edits names the writes of a mutation: the entries of Views, Cells and
// Configs it set whole, and the cellview records it edited.
type edits struct {
	views, cells, configs []string
	cellviews             []cellviewEdit
}

// cellviewEdit names an edited cellview record. Its versions after the
// first `versions` of them and the properties named in props are new; its
// default and lock may be.
type cellviewEdit struct {
	cell, view string
	versions   int // the record's version count before the edit; 0 if it is new
	props      []propKey
}

// propKey names a property: a version key (see versionKey) and a name.
type propKey struct{ version, name string }

// cellview returns the edit of the (cell, view) record, or nil.
func (e *edits) cellview(cell, view string) *cellviewEdit {
	for i := range e.cellviews {
		if e.cellviews[i].cell == cell && e.cellviews[i].view == view {
			return &e.cellviews[i]
		}
	}
	return nil
}

func newMeta(name string) *meta {
	return &meta{
		Name:    name,
		Views:   map[string]string{},
		Configs: map[string]map[string]int{},
	}
}

// next returns the root a mutation builds on: a copy of m that shares
// everything m holds. Published records and maps are immutable, so a
// mutation writes nothing it shares: Cells and Props are persistent maps,
// whose set copies only the path to its key, and setView and setConfig
// clone the Views and Configs maps on their first write, so a checkout or
// checkin copies one path of Cells and one cell record.
func (m *meta) next() *meta {
	return &meta{
		Name:    m.Name,
		Seq:     m.Seq,
		Views:   m.Views,
		Cells:   m.Cells,
		Configs: m.Configs,
	}
}

// editCellview replaces the existing (cell, view) record of m, a root from
// next, with a copy the mutation may write, records the edit, and returns
// the copy; a record this mutation already copied is returned as it is.
// The copy's Props is a persistent map, which setProperty replaces rather
// than writes. Its Versions share the array of the record it copies, so an
// append writes into that array's spare capacity, or reallocates when
// there is none. That is safe because every root reads only its own
// length of Versions: the slots past it belong to no published root, and
// roots are built only from the latest one, so no two published roots
// ever write the same slot.
func (m *meta) editCellview(cell, view string) *cellviewMeta {
	c, _ := m.Cells.get(cell)
	if m.edits.cellview(cell, view) != nil {
		return c.Cellviews[view]
	}
	cv := *c.Cellviews[view]
	m.edits.cellviews = append(m.edits.cellviews, cellviewEdit{cell: cell, view: view, versions: len(cv.Versions)})
	m.putCellview(cell, view, &cv)
	return &cv
}

// addCellview adds a new (cell, view) record, its version 1, to m, a root
// from next, and records the edit.
func (m *meta) addCellview(cell, view string) {
	m.edits.cellviews = append(m.edits.cellviews, cellviewEdit{cell: cell, view: view})
	m.putCellview(cell, view, &cellviewMeta{Versions: []int{1}, Default: 1})
}

// putCellview replaces the cell record of m, a root from next, with a copy
// holding cv as its view record.
func (m *meta) putCellview(cell, view string, cv *cellviewMeta) {
	old, _ := m.Cells.get(cell)
	c := &cellMeta{Cellviews: maps.Clone(old.Cellviews)}
	c.Cellviews[view] = cv
	m.Cells = m.Cells.set(cell, c)
}

// setProperty sets a property of version num of the existing (cell, view)
// record of m, a root from next, and records it. It copies the version's
// own property map, and Props only on the path to the version's key.
func (m *meta) setProperty(cell, view string, num int, name, value string) {
	cv := m.editCellview(cell, view)
	k := versionKey(num)
	old, _ := cv.Props.get(k)
	props := maps.Clone(old)
	if props == nil {
		props = map[string]string{}
	}
	props[name] = value
	cv.Props = cv.Props.set(k, props)
	e := m.edits.cellview(cell, view)
	if p := (propKey{k, name}); !slices.Contains(e.props, p) {
		e.props = append(e.props, p)
	}
}

// setView, setCell and setConfig set a whole entry of the top-level maps
// of a root from next and record its key in edits; with editCellview,
// addCellview and setProperty, they are the only writes a mutation makes.
// The first setView or setConfig of a mutation clones the map it writes,
// which next shares with the published root.
func (m *meta) setView(view, viewtype string) {
	if len(m.edits.views) == 0 {
		m.Views = maps.Clone(m.Views)
	}
	m.Views[view] = viewtype
	m.edits.views = addKey(m.edits.views, view)
}

func (m *meta) setCell(cell string, c *cellMeta) {
	m.Cells = m.Cells.set(cell, c)
	m.edits.cells = addKey(m.edits.cells, cell)
}

func (m *meta) setConfig(config string, cfg map[string]int) {
	if len(m.edits.configs) == 0 {
		m.Configs = maps.Clone(m.Configs)
	}
	m.Configs[config] = cfg
	m.edits.configs = addKey(m.edits.configs, config)
}

func addKey(keys []string, k string) []string {
	if slices.Contains(keys, k) {
		return keys
	}
	return append(keys, k)
}

func (m *meta) cellview(cell, view string) (*cellviewMeta, error) {
	c, ok := m.Cells.get(cell)
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

	mu       sync.Mutex
	meta     *meta  // published root; never written, only replaced
	buf      []byte // encode buffer of journal records and checkpoints, reused
	metaSize int64  // bytes of .meta, the last checkpoint
	metaSeq  int64  // seq of .meta, which the journal's header names
	metaCRC  uint32 // crc32 of .meta, which the journal's header names
	logSize  int64  // bytes of the journal's valid prefix, its header included
	logCut   bool   // the journal may run past logSize: cut it before appending

	// logWrite, when set (tests only), replaces the journal append's
	// f.Write.
	logWrite func(f *os.File, rec []byte) (int, error)

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
	data := appendMeta(nil, l.meta)
	l.metaSize, l.metaCRC = int64(len(data)), crc32.ChecksumIEEE(data)
	_, err = f.Write(data)
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

// Open loads an existing library from dir: the .meta checkpoint, then the
// records of the journal that follow it (see replay). A .meta that does
// not parse, or holds a null cell, cellview or config record, fails with
// ErrCorrupt; a torn or invalid journal tail is dropped, not reported, and
// so is a journal whose header names another .meta.
func Open(dir string) (*Library, error) {
	data, err := os.ReadFile(filepath.Join(dir, MetaFileName))
	if err != nil {
		return nil, fmt.Errorf("fmcad: open library: %w", err)
	}
	m, err := decodeMeta(data)
	if err != nil {
		return nil, fmt.Errorf("fmcad: open library %s: %w", dir, err)
	}
	log, err := os.ReadFile(filepath.Join(dir, logFileName))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("fmcad: open library: %w", err)
	}
	l := &Library{dir: dir, meta: m, metaSize: int64(len(data)), metaSeq: m.Seq, metaCRC: crc32.ChecksumIEEE(data)}
	l.logSize = replay(m, log, l.metaCRC)
	l.logCut = l.logSize < int64(len(log))
	return l, nil
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

// commitLocked bumps the sequence number of next, writes it to disk and
// only then publishes it as the library's root; caller holds l.mu. The
// write is a journal record, or a checkpoint once the journal is larger
// than .meta and checkpointFloor. If the write fails, next is dropped, so
// memory never runs ahead of the disk.
func (l *Library) commitLocked(next *meta) error {
	next.Seq++
	var err error
	if l.checkpointDue() {
		err = l.checkpoint(next)
	} else {
		err = l.appendLog(next)
	}
	if err != nil {
		return fmt.Errorf("fmcad: flush meta: %w", err)
	}
	l.meta = next
	return nil
}

// checkpointDue reports whether the next commit writes a checkpoint;
// caller holds l.mu.
func (l *Library) checkpointDue() bool {
	return l.logSize > max(l.metaSize, checkpointFloor)
}

// appendLog appends the journal record of next, behind the header that
// names .meta when the journal is empty. The log is opened per append:
// opening an existing file costs a few microseconds, and holding it open
// would need a Close. A failed or short append is cut back off, so a torn
// record never sits in front of a later one.
func (l *Library) appendLog(next *meta) error {
	path := filepath.Join(l.dir, logFileName)
	if l.logCut {
		if err := os.Truncate(path, l.logSize); err != nil {
			return err
		}
		l.logCut = false
	}
	l.buf = l.buf[:0]
	if l.logSize == 0 {
		l.buf = appendHeader(l.buf, l.metaSeq, l.metaCRC)
	}
	l.buf = appendRecord(l.buf, next)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	write := (*os.File).Write
	if l.logWrite != nil {
		write = l.logWrite
	}
	_, err = write(f, l.buf)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// Cut by path: f may be unusable. If this fails too, the next
		// append cuts first.
		l.logCut = os.Truncate(path, l.logSize) != nil
		return err
	}
	l.logSize += int64(len(l.buf))
	return nil
}

// checkpoint writes the whole of next to .meta by a temp file and a
// rename, then truncates the journal, whose records .meta now holds. A
// crash between the rename and the truncate leaves records replay skips;
// a failed truncate is retried before the next append.
func (l *Library) checkpoint(next *meta) error {
	l.buf = appendMeta(l.buf[:0], next)
	tmp := filepath.Join(l.dir, MetaFileName+".tmp")
	if err := os.WriteFile(tmp, l.buf, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, MetaFileName)); err != nil {
		return err
	}
	l.metaSize, l.metaSeq, l.metaCRC = int64(len(l.buf)), next.Seq, crc32.ChecksumIEEE(l.buf)
	l.logSize = 0
	err := os.Truncate(filepath.Join(l.dir, logFileName), 0)
	l.logCut = err != nil && !errors.Is(err, fs.ErrNotExist)
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
		m.setView(view, viewtype)
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
		if _, dup := m.Cells.get(cell); dup {
			return fmt.Errorf("%w: cell %q", ErrExists, cell)
		}
		m.setCell(cell, &cellMeta{Cellviews: map[string]*cellviewMeta{}})
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
	c, ok := l.meta.Cells.get(cell)
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
	next.addCellview(cell, view)
	if err := l.commitLocked(next); err != nil {
		_ = os.Remove(path) //lint:allow noerrdrop no metadata names the file; a leftover is overwritten by the next create
		return err
	}
	return nil
}

// writeDesignFile writes a design file, creating its directory when it is
// missing.
func writeDesignFile(path string, data []byte) error {
	err := os.WriteFile(path, data, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
	}
	return err
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
	return l.snapshot().Cells.keys()
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
	c, ok := l.meta.Cells.get(cell)
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
	if err == nil && !cv.hasVersion(num) {
		err = fmt.Errorf("%w: version %d of %s/%s", ErrNotFound, num, cell, view)
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

func versionKey(num int) string { return "v" + strconv.Itoa(num) }

// SetProperty attaches a name=value property to a cellview version.
func (l *Library) SetProperty(cell, view string, num int, name, value string) error {
	return l.mutate(func(m *meta) error {
		cv, err := m.cellview(cell, view)
		if err != nil {
			return err
		}
		if !cv.hasVersion(num) {
			return fmt.Errorf("%w: version %d of %s/%s", ErrNotFound, num, cell, view)
		}
		m.setProperty(cell, view, num, name, value)
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
	props, exists := cv.Props.get(versionKey(num))
	if !exists {
		return "", false, nil
	}
	v, ok := props[name]
	return v, ok, nil
}

// hasVersion reports whether num is a version of cv. Versions ascend
// (replay's appliesTo enforces it), so the search is binary.
func (cv *cellviewMeta) hasVersion(num int) bool {
	_, ok := slices.BinarySearch(cv.Versions, num)
	return ok
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
		m.setConfig(name, map[string]int{})
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
		if !cv.hasVersion(num) {
			return fmt.Errorf("%w: version %d of %s/%s", ErrNotFound, num, cell, view)
		}
		cfg = maps.Clone(cfg)
		cfg[cvKey(cell, view)] = num
		m.setConfig(config, cfg)
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
		m.setConfig(parent, cfg)
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
