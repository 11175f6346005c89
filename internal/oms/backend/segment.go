package backend

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Segment is the append-only segment (write-ahead log) backend.
//
// Every Put appends one framed record to the active segment file and
// fsyncs it; every Delete appends a tombstone frame and fsyncs it. The
// fsynced frame is the commit point: nothing else is written per
// operation. A frame's CRC covers its kind, its lengths and its name as
// well as the payload, so a torn or zero-filled tail can never register
// a name, live or deleted.
//
// MANIFEST is a checkpoint, written by atomic rename only when the
// active segment rotates: it maps every live name to the segment,
// offset and checksum of its latest record as of the end of the
// segment it closes, and names the first segment it does not cover.
// OpenSegment loads the checkpoint and replays the segments from that
// one on, stopping at the first short or bad frame. Opening never
// writes: the instance's first append cuts any torn tail back to the
// last good frame, so a reader opening the directory cannot cut off a
// frame a live writer has in flight.
//
// At rotation, once the new checkpoint is durable, segment files it
// covers that hold no live record are removed; segments the checkpoint
// does not cover are kept for replay.
//
// A directory written before frames existed holds JWAL records,
// committed by a MANIFEST rewrite per operation. Replay, and a Get
// through a MANIFEST ref, refuse one with ErrOldFormat.
//
// Layout under the backend directory:
//
//	MANIFEST        checkpoint: name -> record location map (atomic rename at rotation)
//	seg-%08d.wal    append-only frame segments
type Segment struct {
	mu         sync.Mutex
	dir        string
	refs       map[string]segRef
	ckptSeg    int // first segment the durable checkpoint does not cover
	activeSeg  int // number of the segment appends go to
	activeName string
	active     *os.File // nil until the next append opens (and trims) it
	activeSize int64    // end of the last good frame in the active segment
	hdr        []byte   // frame header + name scratch, reused under mu

	maxSegBytes int64 // rotation threshold; var for tests
	// crashPoint, when set (tests only), runs just before each fsync that
	// makes a step durable: the frame fsync, with the frame's segment and
	// offset, and the checkpoint's directory fsync, with seg == "".
	crashPoint func(seg string, off int64)
}

// segRef locates the latest record of one name.
type segRef struct {
	Segment string `json:"segment"`
	Offset  int64  `json:"offset"`
	Length  int64  `json:"length"` // payload length
	CRC     uint32 `json:"crc"`    // the frame's CRC
}

// segManifest is the MANIFEST checkpoint content.
type segManifest struct {
	NextSeg int               `json:"next_seg"`
	Refs    map[string]segRef `json:"refs"`
}

// Frame layout, little endian:
//
//	magic "JSG1" | kind u8 | nameLen u16 | payloadLen u64 | crc u32 | name | payload
//
// crc is crc32 (IEEE) over the 15 header bytes before it, the name and
// the payload.
const (
	frameMagic        = "JSG1"
	frameHeaderLen    = 4 + 1 + 2 + 8 + 4
	frameCRCOff       = frameHeaderLen - 4
	framePut          = 1
	frameTombstone    = 2
	maxFrameName      = 1<<16 - 1
	defaultMaxSegSize = 8 << 20
	manifestName      = "MANIFEST"
)

// segName returns the file name of segment n.
func segName(n int) string { return fmt.Sprintf("seg-%08d.wal", n) }

// segNum parses a segment file name; ok is false for anything else.
func segNum(name string) (int, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	n, err := strconv.Atoi(name[4 : len(name)-4])
	return n, err == nil && n > 0
}

// OpenSegment opens (creating if needed) a segment backend rooted at dir.
// It loads the MANIFEST checkpoint and replays every frame appended
// since, up to the first short or bad one. It writes nothing: a torn
// tail is cut back by this instance's first append.
//
// A regular CURRENT file marks a state dir in the File layout. As a
// segment it would hold no committed state, and a caller initialising
// fresh state would write over it, so it is refused with ErrOldFormat.
func OpenSegment(dir string) (*Segment, error) {
	if fi, err := os.Lstat(filepath.Join(dir, ManifestKey)); err == nil && fi.Mode().IsRegular() {
		return nil, fmt.Errorf("backend: %s holds a CURRENT file, a state dir in the File backend's layout; upgrade it with jcf.LoadFrom(backend.OpenFile(old)), then SaveTo(backend.OpenSegment(new)); if that load fails too: %w", dir, ErrOldFormat)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("backend: open segment backend: %w", err)
	}
	s := &Segment{
		dir:         dir,
		refs:        map[string]segRef{},
		ckptSeg:     1,
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
			s.ckptSeg = m.NextSeg
		}
	case os.IsNotExist(err):
		// Fresh directory, or no rotation yet: replay from segment 1.
	default:
		return nil, fmt.Errorf("backend: open segment backend: %w", err)
	}
	if err := s.replay(); err != nil {
		return nil, err
	}
	return s, nil
}

// replay applies the frames of the segments from ckptSeg on, in order,
// and points the active segment at the end of the last good frame.
func (s *Segment) replay() error {
	s.activeSeg = s.ckptSeg
	for n := s.ckptSeg; ; n++ {
		end, clean, err := s.replaySegment(segName(n))
		if os.IsNotExist(err) {
			break
		}
		if err != nil {
			return fmt.Errorf("backend: open segment backend: %w", err)
		}
		s.activeSeg, s.activeSize = n, end
		if !clean {
			break // the log ends at the first short or bad frame
		}
	}
	s.activeName = segName(s.activeSeg)
	return nil
}

// replaySegment applies one segment's frames. It returns the end of the
// last good frame and whether the whole file was good frames.
func (s *Segment) replaySegment(name string) (end int64, clean bool, err error) {
	f, err := os.Open(s.segPath(name))
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	var buf []byte
	for {
		fr, err := readFrame(r, &buf)
		switch {
		case errors.Is(err, io.EOF):
			return end, true, nil
		case errors.Is(err, errBadFrame), errors.Is(err, io.ErrUnexpectedEOF):
			return end, false, nil
		case err != nil:
			return end, false, err
		}
		switch fr.kind {
		case framePut:
			s.refs[fr.name] = segRef{Segment: name, Offset: end, Length: fr.plen, CRC: fr.crc}
		case frameTombstone:
			delete(s.refs, fr.name)
		}
		end += fr.size
	}
}

// frameHeader is a decoded frame header.
type frameHeader struct {
	kind    byte
	nameLen int
	plen    int64  // payload length
	crc     uint32 // the stored checksum
	sum     uint32 // checksum of the header bytes crc covers
}

// checkMagic classifies the four bytes a record starts with: a frame, a
// JWAL record of the backend that rewrote MANIFEST on every operation
// (ErrOldFormat), or anything else (errBadFrame).
func checkMagic(b []byte) error {
	switch string(b) {
	case frameMagic:
		return nil
	case "JWAL":
		return fmt.Errorf("JWAL segment record: %w", ErrOldFormat)
	}
	return errBadFrame
}

// decodeHeader decodes the frame header h, exactly frameHeaderLen bytes
// whose magic the caller checked.
func decodeHeader(h []byte) (frameHeader, error) {
	var fh frameHeader
	fh.kind = h[4]
	fh.nameLen = int(binary.LittleEndian.Uint16(h[5:]))
	fh.plen = int64(binary.LittleEndian.Uint64(h[7:]))
	fh.crc = binary.LittleEndian.Uint32(h[frameCRCOff:])
	fh.sum = crc32.ChecksumIEEE(h[:frameCRCOff])
	if (fh.kind != framePut && fh.kind != frameTombstone) || fh.plen < 0 {
		return fh, errBadFrame
	}
	return fh, nil
}

// frame is one verified log record.
type frame struct {
	frameHeader
	name string
	size int64 // bytes on disk, header included
}

// errBadFrame marks a frame whose magic, kind or checksum is wrong.
var errBadFrame = errors.New("backend: bad frame")

// readFrame reads and verifies the next frame from r, streaming the
// payload through the checksum. io.EOF means a clean end; a short frame
// is io.ErrUnexpectedEOF, a corrupt one errBadFrame and a JWAL record
// ErrOldFormat. buf is scratch.
func readFrame(r *bufio.Reader, buf *[]byte) (frame, error) {
	var fr frame
	magic, err := r.Peek(4)
	if len(magic) == 0 && errors.Is(err, io.EOF) {
		return fr, io.EOF
	}
	if err != nil {
		return fr, io.ErrUnexpectedEOF
	}
	if err := checkMagic(magic); err != nil {
		return fr, err
	}
	h, err := readN(r, buf, frameHeaderLen)
	if err != nil {
		return fr, err
	}
	if fr.frameHeader, err = decodeHeader(h); err != nil {
		return fr, err
	}
	name, err := readN(r, buf, fr.nameLen)
	if err != nil {
		return fr, err
	}
	fr.name = string(name)
	sum := crc32.Update(fr.sum, crc32.IEEETable, name)
	for left := fr.plen; left > 0; {
		chunk, err := r.Peek(int(min(left, int64(r.Size()))))
		if len(chunk) == 0 {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return fr, err
		}
		sum = crc32.Update(sum, crc32.IEEETable, chunk)
		left -= int64(len(chunk))
		if _, err := r.Discard(len(chunk)); err != nil {
			return fr, err
		}
	}
	if sum != fr.crc {
		return fr, errBadFrame
	}
	fr.size = int64(frameHeaderLen+fr.nameLen) + fr.plen
	return fr, nil
}

// readN reads exactly n bytes into the scratch buffer.
func readN(r io.Reader, buf *[]byte, n int) ([]byte, error) {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return b, nil
}

// Dir returns the backend's root directory.
func (s *Segment) Dir() string { return s.dir }

// SupportsDeltas reports true, for callers of DeltaCapable outside
// this module; nothing in it asks any more.
func (s *Segment) SupportsDeltas() bool { return true }

// segPath returns the path of a segment file name.
func (s *Segment) segPath(name string) string { return filepath.Join(s.dir, name) }

// ensureActive opens the active segment for appending and cuts anything
// past the last good frame, so a new frame never lands behind garbage.
// A new segment's directory entry is fsynced before any frame in it can
// be acknowledged. Caller holds s.mu.
func (s *Segment) ensureActive() error {
	if s.active != nil {
		return nil
	}
	f, err := os.OpenFile(s.segPath(s.activeName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("backend: open segment: %w", err)
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() != s.activeSize {
		if fi.Size() < s.activeSize {
			err = fmt.Errorf("%s is %d bytes, shorter than its last good frame end %d", s.activeName, fi.Size(), s.activeSize)
		} else {
			err = f.Truncate(s.activeSize)
		}
	}
	if err == nil && s.activeSize == 0 {
		err = syncDir(s.dir)
	}
	if err != nil {
		return errors.Join(fmt.Errorf("backend: open segment: %w", err), f.Close())
	}
	s.active = f
	return nil
}

// appendFrame writes one frame to the active segment and fsyncs it; on
// success the frame is committed and its ref is returned. On failure
// the tail is cut back to the previous end before the handle is
// dropped. Caller holds s.mu.
func (s *Segment) appendFrame(kind byte, name string, payload []byte) (segRef, error) {
	if len(name) > maxFrameName {
		return segRef{}, fmt.Errorf("backend: name of %d bytes exceeds %d", len(name), maxFrameName)
	}
	if err := s.ensureActive(); err != nil {
		return segRef{}, err
	}
	h := append(s.hdr[:0], frameMagic...)
	h = append(h, kind)
	h = binary.LittleEndian.AppendUint16(h, uint16(len(name)))
	h = binary.LittleEndian.AppendUint64(h, uint64(len(payload)))
	h = append(h, 0, 0, 0, 0) // crc, filled in below
	h = append(h, name...)
	crc := crc32.ChecksumIEEE(h[:frameCRCOff])
	crc = crc32.Update(crc, crc32.IEEETable, h[frameHeaderLen:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(h[frameCRCOff:], crc)
	s.hdr = h
	off := s.activeSize
	_, err := s.active.Write(h)
	if err == nil && len(payload) > 0 {
		_, err = s.active.Write(payload)
	}
	if err == nil && s.crashPoint != nil {
		s.crashPoint(s.activeName, off)
	}
	if err == nil {
		err = s.active.Sync()
	}
	if err != nil {
		return segRef{}, s.dropActive(err)
	}
	s.activeSize = off + int64(len(h)+len(payload))
	return segRef{Segment: s.activeName, Offset: off, Length: int64(len(payload)), CRC: crc}, nil
}

// dropActive handles a failed append: it cuts the active segment back to
// the end of the last good frame and drops the handle, so the next
// append reopens it and trims again should this cut fail too. Caller
// holds s.mu.
func (s *Segment) dropActive(cause error) error {
	err := errors.Join(cause, s.active.Truncate(s.activeSize), s.active.Close())
	s.active = nil
	return err
}

// Put appends a framed record for name; its fsync is the commit.
func (s *Segment) Put(name string, payload []byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, err := s.appendFrame(framePut, name, payload)
	if err != nil {
		return fmt.Errorf("backend: put %s: %w", name, err)
	}
	s.refs[name] = ref
	s.maybeRotate()
	return nil
}

// maybeRotate closes the active segment once it reaches maxSegBytes,
// writes a checkpoint covering it and collects the segments that
// checkpoint frees. Appends move to the next segment even when the
// checkpoint fails: the frame that triggered the rotation is already
// committed, replay from the older checkpoint still reaches the new
// segment, and the next rotation writes the checkpoint again. Caller
// holds s.mu.
func (s *Segment) maybeRotate() {
	if s.activeSize < s.maxSegBytes {
		return
	}
	if s.active != nil {
		s.active.Close() //lint:allow noerrdrop every frame in it is fsynced; a close error loses nothing
		s.active = nil
	}
	s.activeSeg++
	s.activeName, s.activeSize = segName(s.activeSeg), 0
	if err := s.checkpoint(s.activeSeg); err != nil {
		return // GC stays bounded by the old checkpoint until one succeeds
	}
	s.ckptSeg = s.activeSeg
	s.collectGarbage()
}

// checkpoint atomically replaces MANIFEST with the index, naming next as
// the first segment it does not cover. Caller holds s.mu.
func (s *Segment) checkpoint(next int) error {
	data, err := json.Marshal(&segManifest{NextSeg: next, Refs: s.refs})
	if err != nil {
		return err
	}
	if err := renameIntoPlace(s.dir, manifestName, data); err != nil {
		return err
	}
	if s.crashPoint != nil {
		s.crashPoint("", 0)
	}
	return syncDir(s.dir)
}

// collectGarbage removes the segment files the durable checkpoint covers
// that hold no live record: their puts were superseded and their
// tombstones are folded into the checkpoint. It also removes orphans a
// crash left behind. Caller holds s.mu, after the checkpoint is durable.
func (s *Segment) collectGarbage() {
	live := make(map[string]bool)
	for _, ref := range s.refs {
		live[ref.Segment] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return // best effort; the next rotation scans again
	}
	for _, e := range entries {
		n, ok := segNum(e.Name())
		if e.IsDir() || !ok || n >= s.ckptSeg || live[e.Name()] {
			continue
		}
		os.Remove(s.segPath(e.Name())) //lint:allow noerrdrop best-effort GC; an unreferenced segment left behind is harmless
	}
}

// Get reads and checksum-verifies the latest record of name.
//
// The ref is looked up and the segment file opened without holding s.mu
// across the I/O, so a concurrent Put of the same name can supersede
// the record and segment GC can then delete the file between the lookup
// and the open. That window only ever produces ENOENT (GC removes a
// segment strictly after the index stopped referencing it), so on
// ENOENT the lookup is simply retried against the newer index.
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

// readRecord reads and verifies one frame; no locks held.
func (s *Segment) readRecord(name string, ref segRef) ([]byte, error) {
	f, err := os.Open(s.segPath(ref.Segment))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, err // raw: Get's retry loop keys off it
		}
		return nil, fmt.Errorf("backend: get %s: %w", name, err)
	}
	defer f.Close()
	rec := make([]byte, int64(frameHeaderLen+len(name))+ref.Length)
	n, err := f.ReadAt(rec, ref.Offset)
	if n >= 4 {
		if err := checkMagic(rec[:4]); err != nil {
			return nil, fmt.Errorf("backend: get %s: %w", name, err)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("backend: get %s: %w", name, err)
	}
	fh, err := decodeHeader(rec[:frameHeaderLen])
	if err != nil {
		return nil, fmt.Errorf("backend: get %s: bad record header", name)
	}
	if fh.kind == frameTombstone {
		return nil, fmt.Errorf("backend: get %s: record is not a put", name)
	}
	recName := rec[frameHeaderLen : frameHeaderLen+len(name)]
	if fh.nameLen != len(name) || string(recName) != name {
		return nil, fmt.Errorf("backend: get %s: record names a different payload", name)
	}
	if fh.plen != ref.Length || fh.crc != ref.CRC {
		return nil, fmt.Errorf("backend: get %s: record/index mismatch", name)
	}
	payload := rec[frameHeaderLen+len(name):]
	sum := crc32.Update(fh.sum, crc32.IEEETable, recName)
	if crc32.Update(sum, crc32.IEEETable, payload) != fh.crc {
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

// Delete appends a tombstone for name; its fsync is the commit. Absent
// names are a no-op.
func (s *Segment) Delete(name string) error {
	if err := checkName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.refs[name]; !ok {
		return nil
	}
	if _, err := s.appendFrame(frameTombstone, name, nil); err != nil {
		return fmt.Errorf("backend: delete %s: %w", name, err)
	}
	delete(s.refs, name)
	s.maybeRotate()
	return nil
}

// Close closes the active segment file, whose frames are all fsynced.
// The next append reopens it.
func (s *Segment) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.active
	s.active = nil
	if f == nil {
		return nil
	}
	return f.Close()
}
