package backend

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openFileBackend(tb testing.TB, dir string) Backend {
	tb.Helper()
	b, err := OpenFile(dir)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func openSegmentBackend(tb testing.TB, dir string) Backend {
	tb.Helper()
	b, err := OpenSegment(dir)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// Both backends pass the identical contract suite — the property the
// framework's pluggable persistence rests on.
func TestFileBackendConformance(t *testing.T)    { Conformance(t, openFileBackend) }
func TestSegmentBackendConformance(t *testing.T) { Conformance(t, openSegmentBackend) }

// TestSegmentTornTailIgnored simulates the crash the WAL design defends
// against: bytes appended to the active segment after the last committed
// frame (a torn Put) must be invisible after reopen, and cut off before
// the next frame is appended.
func TestSegmentTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("snap", []byte("committed")); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: garbage lands on the active segment tail and is
	// never fsynced.
	seg := filepath.Join(dir, s.refs["snap"].Segment)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	committedEnd := fi.Size()
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("JWAL\xff\xff torn half-record")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Get("snap")
	if err != nil || string(got) != "committed" {
		t.Fatalf("Get after torn tail = %q, %v", got, err)
	}
	// Opening wrote nothing: the garbage is still there.
	if fi, err := os.Stat(seg); err != nil || fi.Size() == committedEnd {
		t.Fatalf("reopen changed the torn tail: %v", err)
	}
	// The backend keeps working: the first Put cuts the garbage back to
	// the last good frame, then appends and commits cleanly.
	if err := re.Put("snap", []byte("recommitted")); err != nil {
		t.Fatal(err)
	}
	ref := re.refs["snap"]
	fi, err = os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	wantEnd := committedEnd + frameHeaderLen + int64(len("snap")+len("recommitted"))
	if ref.Offset != committedEnd || fi.Size() != wantEnd {
		t.Fatalf("recovery Put landed at %d with the segment %d bytes long, want %d and %d: garbage not truncated",
			ref.Offset, fi.Size(), committedEnd, wantEnd)
	}
	got, err = re.Get("snap")
	if err != nil || string(got) != "recommitted" {
		t.Fatalf("Get after recovery Put = %q, %v", got, err)
	}
}

// TestSegmentCorruptPayloadDetected flips a committed payload byte on
// disk and expects the checksum to catch it.
func TestSegmentCorruptPayloadDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("snap", []byte("pristine-payload")); err != nil {
		t.Fatal(err)
	}
	ref := s.refs["snap"]
	seg := filepath.Join(dir, ref.Segment)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[ref.Offset+frameHeaderLen+int64(len("snap"))] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("snap"); err == nil {
		t.Fatal("corrupt payload passed checksum verification")
	}
}

// TestSegmentRotationAndGC drives the backend across the rotation
// threshold and checks that dead segments are reclaimed while every live
// name stays readable.
func TestSegmentRotationAndGC(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.maxSegBytes = 4096 // rotate quickly
	payload := bytes.Repeat([]byte("r"), 1500)
	for i := 0; i < 12; i++ {
		if err := s.Put("hot", payload); err != nil { // same name: old records die
			t.Fatal(err)
		}
	}
	if err := s.Put("cold", []byte("still-here")); err != nil {
		t.Fatal(err)
	}
	if s.activeSeg < 3 {
		t.Fatalf("no rotation happened: active segment %d", s.activeSeg)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".wal" {
			segs++
		}
	}
	if segs > 3 {
		t.Fatalf("dead segments not collected: %d on disk", segs)
	}
	got, err := s.Get("hot")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("hot lost across rotation: %v", err)
	}
	re, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := re.Get("cold"); err != nil || string(got) != "still-here" {
		t.Fatalf("cold after reopen = %q, %v", got, err)
	}
}

// segFiles returns the segment file names in dir.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if _, ok := segNum(e.Name()); ok {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestSegmentDeleteAcrossRotation deletes a name whose record lives in
// an already-rotated segment: the tombstone must keep it deleted across
// a further rotation and a reopen, although that rotation removes the
// segment holding the record.
func TestSegmentDeleteAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.maxSegBytes = 64 // every Put of 64 bytes rotates
	big := bytes.Repeat([]byte("k"), 64)
	if err := s.Put("gone", big); err != nil {
		t.Fatal(err)
	}
	oldSeg := s.refs["gone"].Segment
	if err := s.Put("keep", big); err != nil {
		t.Fatal(err)
	}
	if s.activeName == oldSeg {
		t.Fatal("no rotation after the first Put")
	}
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	// The checkpoint still names the deleted record; replaying the
	// tombstone must win over it.
	mid, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	if names, err := mid.List(); err != nil || fmt.Sprint(names) != "[keep]" {
		t.Fatalf("reopen before the next rotation: List = %v, %v; want [keep]", names, err)
	}
	if err := s.Put("later", big); err != nil { // rotates again
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, oldSeg)); !os.IsNotExist(err) {
		t.Fatalf("segment %s of the deleted record not removed at rotation: %v", oldSeg, err)
	}
	re, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	names, err := re.List()
	if err != nil || fmt.Sprint(names) != "[keep later]" {
		t.Fatalf("after reopen List = %v, %v; want [keep later]", names, err)
	}
	if _, err := re.Get("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted name after reopen: %v, want ErrNotFound", err)
	}
}

// TestSegmentOverwriteAcrossRotationFreesSegment overwrites the only
// live record of a rotated segment; the segment file must go at the
// next rotation.
func TestSegmentOverwriteAcrossRotationFreesSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.maxSegBytes = 64
	big := bytes.Repeat([]byte("v"), 64)
	if err := s.Put("x", big); err != nil {
		t.Fatal(err)
	}
	oldSeg := s.refs["x"].Segment
	if err := s.Put("x", []byte("small")); err != nil {
		t.Fatal(err)
	}
	if s.refs["x"].Segment == oldSeg {
		t.Fatal("overwrite landed in the rotated segment")
	}
	if err := s.Put("y", big); err != nil { // rotates again
		t.Fatal(err)
	}
	if got := segFiles(t, dir); len(got) != 1 || got[0] != s.refs["x"].Segment {
		t.Fatalf("segments on disk = %v, want only %s", got, s.refs["x"].Segment)
	}
	re, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := re.Get("x"); err != nil || string(got) != "small" {
		t.Fatalf("after reopen Get(x) = %q, %v", got, err)
	}
}

// TestSegmentReaderOpenLeavesWriterTail opens a second instance while
// the writer has appended a frame it has not yet fsynced: the open must
// leave those bytes untouched, so the writer's commit still lands.
func TestSegmentReaderOpenLeavesWriterTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put("first", []byte("one")); err != nil {
		t.Fatal(err)
	}
	var inFlight []byte
	w.crashPoint = func(seg string, off int64) {
		before, err := os.ReadFile(filepath.Join(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		// Cut the unsynced frame to half, as a write still in progress.
		half := off + (int64(len(before))-off)/2
		if err := os.Truncate(filepath.Join(dir, seg), half); err != nil {
			t.Fatal(err)
		}
		r, err := OpenSegment(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := r.Get("first"); err != nil || string(got) != "one" {
			t.Fatalf("reader Get(first) = %q, %v", got, err)
		}
		if _, err := r.Get("second"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("reader sees the half frame: %v", err)
		}
		after, err := os.ReadFile(filepath.Join(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before[:half]) {
			t.Fatalf("reader open changed the writer's tail: %d bytes, want %d", len(after), half)
		}
		// Finish the write the reader must not have disturbed.
		if err := os.WriteFile(filepath.Join(dir, seg), before, 0o644); err != nil {
			t.Fatal(err)
		}
		inFlight = before[off:]
	}
	if err := w.Put("second", []byte("two")); err != nil {
		t.Fatal(err)
	}
	w.crashPoint = nil
	if len(inFlight) == 0 {
		t.Fatal("crash point never reached")
	}
	re, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := re.Get("second"); err != nil || string(got) != "two" {
		t.Fatalf("writer's frame after the reader's open: %q, %v", got, err)
	}
}
