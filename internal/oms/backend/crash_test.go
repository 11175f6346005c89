package backend

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// dirState is a backend directory's files by name.
type dirState map[string][]byte

// snapshotDir reads every regular file of dir.
func snapshotDir(tb testing.TB, dir string) dirState {
	tb.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	st := dirState{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		st[e.Name()] = data
	}
	return st
}

// with returns a copy of st with file name set to data, or removed when
// present is false.
func (st dirState) with(name string, data []byte, present bool) dirState {
	out := maps.Clone(st)
	if present {
		out[name] = data
	} else {
		delete(out, name)
	}
	return out
}

// key identifies a state's content, to check each distinct state once.
func (st dirState) key() string {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s:%d:%s\n", n, len(st[n]), st[n])
	}
	return b.String()
}

// TestSegmentCrashStates enumerates the crash states of the segment
// log's commit protocol over a seeded script of puts, overwrites,
// deletes of names whose records live in older segments, and rotations.
// For each operation it builds every state a crash can leave:
//
//   - the directory before the operation and after it returns;
//   - at the frame fsync, the directory as it then stands with the new
//     frame cut to every byte prefix, and with every prefix followed by
//     zeros up to the frame's length (the file grew, the data did not
//     reach the disk), and whole but with its name bytes zeroed;
//   - at the checkpoint's directory fsync, the directory with the
//     MANIFEST rename kept and with it lost.
//
// Every state must reopen to the plain-map model before or after the
// operation, accept one more Put, and reopen to include it, with every
// segment file then made of whole valid frames only.
func TestSegmentCrashStates(t *testing.T) {
	ops := 120
	if testing.Short() {
		ops = 60
	}
	rng := rand.New(rand.NewSource(1))
	dir, scratch := t.TempDir(), t.TempDir()
	s, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.maxSegBytes = 160
	model := map[string]string{}
	names := []string{"a", "b", "c", "d", "e", "f"}
	var states, oldOverwrites, oldDeletes, rotations int
	for i := 0; i < ops; i++ {
		before := maps.Clone(model)
		pre := snapshotDir(t, dir)
		crash := []dirState{pre}
		s.crashPoint = func(seg string, off int64) {
			now := snapshotDir(t, dir)
			if seg == "" {
				old, had := pre[manifestName]
				crash = append(crash, now, now.with(manifestName, old, had))
				rotations++
				return
			}
			data := now[seg]
			frameLen := int64(len(data)) - off
			for p := int64(0); p <= frameLen; p++ {
				crash = append(crash, now.with(seg, data[:off+p], true))
				if p < frameLen {
					zeroed := append(bytes.Clone(data[:off+p]), make([]byte, frameLen-p)...)
					crash = append(crash, now.with(seg, zeroed, true))
				}
			}
			nameLen := int64(binary.LittleEndian.Uint16(data[off+5:]))
			noName := bytes.Clone(data)
			clear(noName[off+frameHeaderLen : off+frameHeaderLen+nameLen])
			crash = append(crash, now.with(seg, noName, true))
		}

		// Prefer names whose record lives in an older segment, so
		// overwrites and deletes reach across rotations.
		var old, present []string
		for _, n := range names {
			if ref, ok := s.refs[n]; ok {
				present = append(present, n)
				if ref.Segment != s.activeName {
					old = append(old, n)
				}
			}
		}
		pick := func() string {
			if len(old) > 0 && rng.Intn(3) > 0 {
				return old[rng.Intn(len(old))]
			}
			return present[rng.Intn(len(present))]
		}
		var desc string
		switch r := rng.Intn(10); {
		case r < 6 || len(present) == 0:
			name := names[rng.Intn(len(names))]
			if r >= 3 && len(present) > 0 {
				name = pick()
			}
			if ref, ok := s.refs[name]; ok && ref.Segment != s.activeName {
				oldOverwrites++
			}
			payload := make([]byte, rng.Intn(25))
			for j := range payload {
				payload[j] = byte('a' + rng.Intn(26))
			}
			desc = fmt.Sprintf("op %d: put %s (%d bytes)", i, name, len(payload))
			if err := s.Put(name, payload); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			model[name] = string(payload)
		default:
			name := pick()
			if s.refs[name].Segment != s.activeName {
				oldDeletes++
			}
			desc = fmt.Sprintf("op %d: delete %s", i, name)
			if err := s.Delete(name); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			delete(model, name)
		}
		s.crashPoint = nil
		crash = append(crash, snapshotDir(t, dir))

		seen := map[string]bool{}
		for _, st := range crash {
			k := st.key()
			if seen[k] {
				continue
			}
			seen[k] = true
			states++
			checkCrashState(t, filepath.Join(scratch, "state"), st, before, model, desc)
		}
	}
	if oldOverwrites == 0 || oldDeletes == 0 || rotations == 0 {
		t.Fatalf("script lost coverage: %d overwrites and %d deletes of names in older segments, %d rotations",
			oldOverwrites, oldDeletes, rotations)
	}
	t.Logf("%d ops (%d rotations, %d overwrites and %d deletes of names in older segments): %d distinct crash states enumerated",
		ops, rotations, oldOverwrites, oldDeletes, states)
}

// checkCrashState materializes st in dir and checks that it reopens to
// before or after, then takes one more Put and reopens to include it.
func checkCrashState(t *testing.T, dir string, st dirState, before, after map[string]string, desc string) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range st {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := OpenSegment(dir)
	if err != nil {
		t.Fatalf("%s: reopen: %v", desc, err)
	}
	got := readModel(t, s, desc)
	want := before
	if !maps.Equal(got, before) {
		want = after
		if !maps.Equal(got, after) {
			t.Fatalf("%s: crash state reopened to %v, want %v (before) or %v (after)", desc, got, before, after)
		}
	}
	if err := s.Put("probe", []byte("probe-"+desc)); err != nil {
		t.Fatalf("%s: Put after recovery: %v", desc, err)
	}
	re, err := OpenSegment(dir)
	if err != nil {
		t.Fatalf("%s: reopen after recovery Put: %v", desc, err)
	}
	want = maps.Clone(want)
	want["probe"] = "probe-" + desc
	if got := readModel(t, re, desc); !maps.Equal(got, want) {
		t.Fatalf("%s: after recovery Put reopened to %v, want %v", desc, got, want)
	}
	checkWholeFrames(t, dir, desc)
}

// readModel reads every live name of s.
func readModel(t *testing.T, s *Segment, desc string) map[string]string {
	t.Helper()
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(names))
	for _, n := range names {
		p, err := s.Get(n)
		if err != nil {
			t.Fatalf("%s: Get(%s) after reopen: %v", desc, n, err)
		}
		out[n] = string(p)
	}
	return out
}

// checkWholeFrames requires every segment file in dir to be a run of
// valid frames ending exactly at end of file: nothing a later scan
// would stop at may sit in the log once a new frame is committed.
func checkWholeFrames(t *testing.T, dir, desc string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := segNum(e.Name()); !ok {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(f)
		var buf []byte
		var off int64
		for {
			fr, err := readFrame(r, &buf)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				f.Close()
				t.Fatalf("%s: %s holds a bad frame at offset %d after a recovery Put: %v", desc, e.Name(), off, err)
			}
			off += fr.size
		}
		f.Close()
	}
}
