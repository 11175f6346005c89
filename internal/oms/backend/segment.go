package backend

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Segment is the append-only segment (write-ahead log) backend.
//
// Payloads are appended as checksummed records to numbered segment files;
// a small JSON manifest, replaced by atomic rename on every Put/Delete,
// maps each live name to the segment, offset and checksum of its latest
// record. The manifest rename is the commit point: a crash mid-append
// leaves a torn tail that no manifest references, and a crash mid-commit
// leaves the previous manifest — either way every name still reads as a
// complete, checksum-verified payload. Segments that no longer hold any
// live record are deleted once they are not the active tail.
//
// Layout under the backend directory:
//
//	MANIFEST        name -> record location map (atomic rename)
//	seg-%08d.wal    append-only record segments
type Segment struct {
	mu          sync.Mutex
	dir         string
	refs        map[string]segRef
	nextSeg     int
	active      *os.File
	activeName  string
	activeSize  int64
	maxSegBytes int64 // rotation threshold; var for tests
}

// segRef locates the latest record of one name.
type segRef struct {
	Segment string `json:"segment"`
	Offset  int64  `json:"offset"`
	Length  int64  `json:"length"` // payload length
	CRC     uint32 `json:"crc"`    // crc32 (IEEE) of the payload
}

// segManifest is the MANIFEST file content.
type segManifest struct {
	NextSeg int               `json:"next_seg"`
	Refs    map[string]segRef `json:"refs"`
}

const (
	segMagic          = "JWAL"
	segHeaderLen      = 4 + 4 + 8 + 4 // magic, nameLen, payloadLen, crc
	defaultMaxSegSize = 8 << 20
	manifestName      = "MANIFEST"
)

// OpenSegment opens (creating if needed) a segment backend rooted at dir.
// Reopening a directory after a crash recovers to the last committed
// manifest; unreferenced tail bytes are ignored and overwritten space is
// reclaimed as segments rotate.
func OpenSegment(dir string) (*Segment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("backend: open segment backend: %w", err)
	}
	s := &Segment{
		dir:         dir,
		refs:        map[string]segRef{},
		nextSeg:     1,
		maxSegBytes: defaultMaxSegSize,
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		var m segManifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("backend: corrupt manifest in %s: %w", dir, err)
		}
		if m.Refs != nil {
			s.refs = m.Refs
		}
		if m.NextSeg > 0 {
			s.nextSeg = m.NextSeg
		}
	case os.IsNotExist(err):
		// Fresh directory (or crash before the very first commit).
	default:
		return nil, fmt.Errorf("backend: open segment backend: %w", err)
	}
	return s, nil
}

// Dir returns the backend's root directory.
func (s *Segment) Dir() string { return s.dir }

// SupportsDeltas marks the segment backend as delta-capable: a Put is
// an append to the active segment, so writing a small delta payload
// costs O(delta), not O(store) — the property the framework's
// differential Save exploits.
func (s *Segment) SupportsDeltas() bool { return true }

// segPath returns the path of a segment file name.
func (s *Segment) segPath(name string) string { return filepath.Join(s.dir, name) }

// ensureActive opens (appending) the active segment; caller holds s.mu.
func (s *Segment) ensureActive() error {
	if s.active != nil {
		return nil
	}
	name := fmt.Sprintf("seg-%08d.wal", s.nextSeg)
	f, err := os.OpenFile(s.segPath(name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("backend: open segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		return errors.Join(fmt.Errorf("backend: open segment: %w", err), f.Close())
	}
	s.active, s.activeName, s.activeSize = f, name, fi.Size()
	return nil
}

// Put appends a record for name and commits it via a manifest rename.
func (s *Segment) Put(name string, payload []byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureActive(); err != nil {
		return err
	}
	rec := make([]byte, segHeaderLen+len(name)+len(payload))
	copy(rec, segMagic)
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(name)))
	binary.LittleEndian.PutUint64(rec[8:], uint64(len(payload)))
	crc := crc32.ChecksumIEEE(payload)
	binary.LittleEndian.PutUint32(rec[16:], crc)
	copy(rec[segHeaderLen:], name)
	copy(rec[segHeaderLen+len(name):], payload)
	offset := s.activeSize
	if _, err := s.active.Write(rec); err != nil {
		// The tail may now hold a partial record and s.activeSize no
		// longer matches the file: drop the handle so the next Put
		// re-Stats the true end of file. The garbage tail itself is
		// harmless — nothing committed references it.
		s.invalidateActive()
		return fmt.Errorf("backend: put %s: %w", name, err)
	}
	if err := s.active.Sync(); err != nil {
		s.invalidateActive()
		return fmt.Errorf("backend: put %s: %w", name, err)
	}
	s.activeSize += int64(len(rec))
	prev, hadPrev := s.refs[name]
	s.refs[name] = segRef{Segment: s.activeName, Offset: offset, Length: int64(len(payload)), CRC: crc}
	if err := s.commitManifest(); err != nil {
		// The appended record is unreachable without a manifest; roll the
		// in-memory index back to the last committed ref so state keeps
		// matching the on-disk manifest.
		if hadPrev {
			s.refs[name] = prev
		} else {
			delete(s.refs, name)
		}
		return fmt.Errorf("backend: put %s: %w", name, err)
	}
	if s.activeSize >= s.maxSegBytes {
		s.rotate()
	}
	s.collectGarbage()
	return nil
}

// commitManifest atomically replaces MANIFEST with the in-memory index;
// caller holds s.mu. This is the durability point of every mutation:
// the temp file is fsynced before the rename and the directory after
// it, so a power loss can never install a torn or unreachable manifest.
func (s *Segment) commitManifest() error {
	data, err := json.Marshal(&segManifest{NextSeg: s.nextSeg, Refs: s.refs})
	if err != nil {
		return err
	}
	return atomicWriteFile(s.dir, manifestName, data)
}

// invalidateActive drops the active segment handle after a failed
// append so ensureActive reopens it and re-Stats the true size; caller
// holds s.mu.
func (s *Segment) invalidateActive() {
	if s.active != nil {
		s.active.Close() //lint:allow noerrdrop the handle is being discarded after a failed append; ensureActive re-Stats the truth
		s.active = nil
	}
	s.activeName, s.activeSize = "", 0
}

// rotate closes the active segment and points at a fresh one; caller
// holds s.mu. The new nextSeg lands in the manifest on the next commit.
func (s *Segment) rotate() {
	s.invalidateActive()
	s.nextSeg++
}

// collectGarbage removes segment files that hold no live record and are
// not the active tail; caller holds s.mu.
func (s *Segment) collectGarbage() {
	live := map[string]bool{s.activeName: true}
	for _, ref := range s.refs {
		live[ref.Segment] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return // best effort; unreferenced segments are harmless
	}
	current := fmt.Sprintf("seg-%08d.wal", s.nextSeg)
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || len(n) < 4 || n[:4] != "seg-" || live[n] || n == current {
			continue
		}
		os.Remove(s.segPath(n)) //lint:allow noerrdrop best-effort GC; an unreferenced segment left behind is harmless
	}
}

// Get reads and checksum-verifies the latest record of name.
//
// The ref is looked up and the segment file opened without holding s.mu
// across the I/O, so a concurrent Put of the same name can supersede
// the record and segment GC can then delete the file between the lookup
// and the open. That window only ever produces ENOENT (GC removes a
// segment strictly after the manifest stopped referencing it), so on
// ENOENT the lookup is simply retried against the newer manifest state.
func (s *Segment) Get(name string) ([]byte, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	var lastRef segRef
	var retried bool
	for {
		s.mu.Lock()
		ref, ok := s.refs[name]
		s.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		if retried && ref == lastRef {
			// Same committed ref, file still gone: the segment was
			// removed behind the backend's back, not by our GC.
			return nil, fmt.Errorf("backend: get %s: segment %s missing", name, ref.Segment)
		}
		payload, err := s.readRecord(name, ref)
		if os.IsNotExist(err) {
			// The segment was collected under us; the name must have
			// been re-Put (or Deleted) — retry against the new ref.
			lastRef, retried = ref, true
			continue
		}
		return payload, err
	}
}

// readRecord reads and verifies one record; no locks held.
func (s *Segment) readRecord(name string, ref segRef) ([]byte, error) {
	f, err := os.Open(s.segPath(ref.Segment))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, err // raw: Get's retry loop keys off it
		}
		return nil, fmt.Errorf("backend: get %s: %w", name, err)
	}
	defer f.Close()
	rec := make([]byte, segHeaderLen+int64(len(name))+ref.Length)
	if _, err := f.ReadAt(rec, ref.Offset); err != nil {
		return nil, fmt.Errorf("backend: get %s: %w", name, err)
	}
	if string(rec[:4]) != segMagic {
		return nil, fmt.Errorf("backend: get %s: bad record magic", name)
	}
	nameLen := binary.LittleEndian.Uint32(rec[4:])
	payloadLen := binary.LittleEndian.Uint64(rec[8:])
	crc := binary.LittleEndian.Uint32(rec[16:])
	if int(nameLen) != len(name) || string(rec[segHeaderLen:segHeaderLen+len(name)]) != name {
		return nil, fmt.Errorf("backend: get %s: record names a different payload", name)
	}
	if int64(payloadLen) != ref.Length || crc != ref.CRC {
		return nil, fmt.Errorf("backend: get %s: record/manifest mismatch", name)
	}
	payload := rec[segHeaderLen+len(name):]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("backend: get %s: checksum mismatch", name)
	}
	return payload, nil
}

// List returns the live names, sorted.
func (s *Segment) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.refs))
	for n := range s.refs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// Delete removes a name and commits the removal; absent names are a
// no-op.
func (s *Segment) Delete(name string) error {
	if err := checkName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.refs[name]
	if !ok {
		return nil
	}
	delete(s.refs, name)
	if err := s.commitManifest(); err != nil {
		s.refs[name] = ref
		return fmt.Errorf("backend: delete %s: %w", name, err)
	}
	s.collectGarbage()
	return nil
}
