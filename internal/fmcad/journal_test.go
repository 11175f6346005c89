package fmcad

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// marshalRoot returns json.Marshal of a root, the oracle every on-disk
// check compares against.
func marshalRoot(t testing.TB, m *meta) []byte {
	t.Helper()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// requireOnDisk fails unless a fresh Open of l's directory loads exactly
// the root l has published: the checkpoint plus the replayed journal are
// the model of the library in memory.
func requireOnDisk(t testing.TB, l *Library, context string) {
	t.Helper()
	l2, err := Open(l.Dir())
	if err != nil {
		t.Fatalf("%s: reopen: %v", context, err)
	}
	if got, want := marshalRoot(t, l2.meta), marshalRoot(t, l.meta); !bytes.Equal(got, want) {
		t.Fatalf("%s: reopened library differs from the root:\n got %s\nwant %s", context, got, want)
	}
}

// block puts a directory where the file at path belongs, moving the file
// aside, so that creating, opening, truncating or renaming over path
// fails. The returned func puts the file back.
func block(t testing.TB, path string) func() error {
	t.Helper()
	aside := path + ".aside"
	moved := os.Rename(path, aside) == nil
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	return func() error {
		err := os.Remove(path)
		if moved && err == nil {
			err = os.Rename(aside, path)
		}
		return err
	}
}

// untilCheckpoint commits configs until the journal is larger than .meta,
// so that l's next commit writes a checkpoint.
func untilCheckpoint(t *testing.T, l *Library) {
	t.Helper()
	for i := 0; l.logSize <= l.metaSize; i++ {
		if err := l.CreateConfig("pad" + strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// readFiles returns the bytes of the named files of dir; a missing file
// reads as nil.
func readFiles(t testing.TB, dir string, names ...string) [][]byte {
	t.Helper()
	out := make([][]byte, len(names))
	for i, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

// crashState is the metadata files of a library directory a crash can
// leave; a nil file is absent.
type crashState struct {
	meta, log, tmp []byte
	want           []byte // the root it must open to, marshalled
	desc           string
}

// TestMetaLogCrashStates enumerates the crash states of the journal over
// a seeded script of checkouts, checkins, cancels, property tags, cells
// and configs. For each commit it builds every state a crash can leave:
//
//   - for an append, the journal with the new record cut to every byte
//     prefix, and with every prefix followed by zeros up to the record's
//     length (the file grew, the data did not reach the disk);
//   - for a checkpoint, the temp file written but not renamed, and the
//     rename done but the journal not yet truncated.
//
// Each state must open, never with ErrCorrupt, to the root after the
// last whole record; accept one more mutation; and open again to include
// it.
func TestMetaLogCrashStates(t *testing.T) {
	ops := 48
	if testing.Short() {
		ops = 20
	}
	rng := rand.New(rand.NewSource(27))
	l := newLib(t)
	cells := []string{"a", "b", "c"}
	for _, c := range cells {
		mustCell(t, l, c, "schematic")
	}
	if err := l.CreateConfig("top"); err != nil {
		t.Fatal(err)
	}
	s := l.NewSession("anna")
	var wf *Workfile
	scratch := filepath.Join(t.TempDir(), "state")
	var states, appends, checkpoints int
	for i := 0; i < ops; i++ {
		pre := readFiles(t, l.Dir(), MetaFileName, logFileName)
		before := marshalRoot(t, l.meta)
		cell := cells[rng.Intn(len(cells))]
		var err error
		var desc string
		switch r := rng.Intn(10); {
		case wf == nil && r < 5:
			desc = "checkout " + cell
			wf, err = s.Checkout(cell, "schematic")
		case wf != nil && r < 5:
			desc = "checkin " + wf.Cell
			if rng.Intn(4) == 0 {
				desc = "cancel " + wf.Cell
				err = s.Cancel(wf)
			} else {
				_, err = s.Checkin(wf)
			}
			wf = nil
		case r < 8:
			desc = "tag " + cell
			err = l.SetProperty(cell, "schematic", 1, "tag", strconv.Itoa(i))
		case r < 9:
			desc = "config " + cell
			err = l.AddToConfig("top", cell, "schematic", 1)
		default:
			desc = "cell"
			err = l.CreateCell("n" + strconv.Itoa(i))
		}
		if err != nil {
			t.Fatalf("op %d (%s): %v", i, desc, err)
		}
		desc = fmt.Sprintf("op %d (%s)", i, desc)
		post := readFiles(t, l.Dir(), MetaFileName, logFileName)
		after := marshalRoot(t, l.meta)

		var crash []crashState
		if bytes.Equal(post[0], pre[0]) {
			appends++
			if !bytes.HasPrefix(post[1], pre[1]) {
				t.Fatalf("%s: the append rewrote the journal", desc)
			}
			rec := post[1][len(pre[1]):]
			for p := 0; p <= len(rec); p++ {
				want := before
				if p == len(rec) {
					want = after
				}
				torn := append(bytes.Clone(pre[1]), rec[:p]...)
				crash = append(crash, crashState{meta: pre[0], log: torn, want: want, desc: fmt.Sprintf("%s, %d of %d record bytes", desc, p, len(rec))})
				if p < len(rec) {
					zeroed := append(torn, make([]byte, len(rec)-p)...)
					crash = append(crash, crashState{meta: pre[0], log: zeroed, want: before, desc: fmt.Sprintf("%s, %d of %d record bytes then zeros", desc, p, len(rec))})
				}
			}
		} else {
			checkpoints++
			if len(post[1]) != 0 {
				t.Fatalf("%s: the checkpoint left %d journal bytes", desc, len(post[1]))
			}
			crash = append(crash,
				crashState{meta: pre[0], log: pre[1], tmp: post[0], want: before, desc: desc + ", temp file not renamed"},
				crashState{meta: post[0], log: pre[1], want: after, desc: desc + ", journal not truncated"},
				crashState{meta: post[0], log: post[1], want: after, desc: desc + ", checkpoint whole"})
		}
		for _, st := range crash {
			checkJournalState(t, scratch, st)
			states++
		}
	}
	if appends == 0 || checkpoints < 3 {
		t.Fatalf("script lost coverage: %d appends, %d checkpoints", appends, checkpoints)
	}
	t.Logf("%d ops (%d appends, %d checkpoints): %d crash states", ops, appends, checkpoints, states)
}

// checkJournalState materializes st in dir and checks that it opens to
// st.want, then takes one more mutation and opens to include it.
func checkJournalState(t *testing.T, dir string, st crashState) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Files are rewritten in place rather than created: a file create
	// costs far more than the rest of the check.
	for name, data := range map[string][]byte{MetaFileName: st.meta, logFileName: st.log, MetaFileName + ".tmp": st.tmp} {
		path := filepath.Join(dir, name)
		if data == nil {
			if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("%s: Open: %v", st.desc, err)
	}
	if got := marshalRoot(t, l.meta); !bytes.Equal(got, st.want) {
		t.Fatalf("%s: opened to\n %s\nwant\n %s", st.desc, got, st.want)
	}
	if err := l.CreateCell("probe"); err != nil {
		t.Fatalf("%s: mutation after the crash: %v", st.desc, err)
	}
	requireOnDisk(t, l, st.desc+", after one more mutation")
}

// A tool run's checkout, checkin and property tag between two checkpoints
// append to the journal and create no file but the version file: .meta
// keeps its inode and bytes, and the workfile is rewritten in place by
// each checkout, which restages the base version's content.
func TestJournalWorkCounts(t *testing.T) {
	l := newLib(t)
	for i := 0; i < 64; i++ {
		mustCell(t, l, "cell"+strconv.Itoa(i), "schematic")
	}
	if err := l.CreateConfig("top"); err != nil {
		t.Fatal(err)
	}
	s := l.NewSession("anna")
	const cycles = 4
	// One tool run's metadata work, as core's captureResult does it.
	toolRun := func(i int) {
		t.Helper()
		wf, err := s.Checkout("cell0", "schematic")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wf.Path, []byte("run "+strconv.Itoa(i)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		num, err := s.Checkin(wf)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.SetProperty("cell0", "schematic", num, "jcf_version", strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	toolRun(0) // stages the workfile
	// Run until a checkpoint, so that the next cycles fit before the next.
	metaPath := filepath.Join(l.Dir(), MetaFileName)
	first, err := os.Stat(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; ; i++ {
		toolRun(i)
		fi, err := os.Stat(metaPath)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(fi, first) {
			break
		}
	}
	// Each cycle appends three records of cell0, which grow a little.
	if rec := int64(len(appendRecord(nil, l.meta))); l.logSize+3*cycles*(rec+64) >= l.metaSize {
		t.Fatalf("test premise broken: .meta of %d bytes too small for %d cycles of %d-byte records", l.metaSize, cycles, rec)
	}
	meta0, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	metaFi0, err := os.Stat(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cycles; i++ {
		inodes := libraryFiles(t, l.Dir())
		toolRun(100 + i)
		created := 0
		for path, fi := range libraryFiles(t, l.Dir()) {
			if old, ok := inodes[path]; !ok || !os.SameFile(old, fi) {
				created++
				if want := l.VersionPath("cell0", "schematic", l.meta.Cells["cell0"].Cellviews["schematic"].Default); path != want {
					t.Errorf("cycle %d created %s; only the version file %s should be new", i, path, want)
				}
			}
		}
		if created != 1 {
			t.Fatalf("cycle %d created %d files, want 1", i, created)
		}
	}
	metaFi, err := os.Stat(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(metaPath); !os.SameFile(metaFi, metaFi0) || !bytes.Equal(data, meta0) {
		t.Fatal(".meta was rewritten between two checkpoints")
	}
	requireOnDisk(t, l, "after the cycles")

	// Two checkouts in a row reuse the workfile, and a checkout restages
	// the base version over whatever the last one left.
	wf, err := s.Checkout("cell1", "schematic")
	if err != nil {
		t.Fatal(err)
	}
	fi1, err := os.Stat(wf.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wf.Path, []byte("abandoned draft\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(wf); err != nil {
		t.Fatal(err)
	}
	wf, err = s.Checkout("cell1", "schematic")
	if err != nil {
		t.Fatal(err)
	}
	fi2, err := os.Stat(wf.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(fi1, fi2) {
		t.Fatal("the second checkout created a new workfile")
	}
	num, err := s.Checkin(wf)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := l.ReadVersion("cell1", "schematic", num); err != nil || len(data) != 0 {
		t.Fatalf("checkin after a cancelled draft = %q, %v; want the base version's empty content", data, err)
	}
}

// libraryFiles returns the regular files under dir by path.
func libraryFiles(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	out := map[string]os.FileInfo{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		fi, err := d.Info()
		out[path] = fi
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A short append is cut back off the journal and publishes nothing; the
// next mutation is acknowledged and survives a reopen. When the cut back
// fails too, the next append cuts the torn record first.
func TestTornAppend(t *testing.T) {
	for _, cutFails := range []bool{false, true} {
		t.Run(fmt.Sprintf("cut-fails=%t", cutFails), func(t *testing.T) {
			l := newLib(t)
			mustCell(t, l, "alu", "schematic")
			logPath := filepath.Join(l.Dir(), logFileName)
			if l.logSize > l.metaSize {
				if err := l.CreateConfig("checkpoint"); err != nil {
					t.Fatal(err)
				}
			}
			root, logBefore := l.meta, readFiles(t, l.Dir(), logFileName)[0]
			var restore func() error
			l.logWrite = func(f *os.File, rec []byte) (int, error) {
				n, err := f.Write(rec[:len(rec)/2])
				if err == nil {
					err = io.ErrShortWrite
				}
				if cutFails {
					restore = block(t, logPath)
				}
				return n, err
			}
			if err := l.SetProperty("alu", "schematic", 1, "tag", "torn"); err == nil {
				t.Fatal("a short append was acknowledged")
			}
			l.logWrite = nil
			if l.meta != root {
				t.Fatal("a failed append published its root")
			}
			if cutFails {
				if err := l.SetProperty("alu", "schematic", 1, "tag", "blocked"); err == nil {
					t.Fatal("an append over an uncut torn record was acknowledged")
				}
				if err := restore(); err != nil {
					t.Fatal(err)
				}
				if got := readFiles(t, l.Dir(), logFileName)[0]; len(got) <= len(logBefore) {
					t.Fatal("test premise broken: the torn record is not on disk")
				}
			} else if got := readFiles(t, l.Dir(), logFileName)[0]; !bytes.Equal(got, logBefore) {
				t.Fatalf("the torn record was not cut back: %d journal bytes, had %d", len(got), len(logBefore))
			}
			requireOnDisk(t, l, "after the torn append")
			if err := l.SetProperty("alu", "schematic", 1, "tag", "whole"); err != nil {
				t.Fatal(err)
			}
			requireOnDisk(t, l, "after the acknowledged mutation")
			if v, _, _ := l.GetProperty("alu", "schematic", 1, "tag"); v != "whole" {
				t.Fatalf("tag = %q", v)
			}
		})
	}
}

// Replay applies the next seq, skips the seqs the checkpoint holds, and
// ends the valid prefix at the first frame it cannot trust.
func TestReplayStopsAtInvalidRecord(t *testing.T) {
	frame := func(payload string) []byte {
		rec := append(make([]byte, recordHeaderLen), payload...)
		binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
		binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE([]byte(payload)))
		return rec
	}
	good := frame(`{"seq":6,"cells":{"alu":{"cellviews":{}}}}`)
	badCRC := bytes.Clone(frame(`{"seq":6}`))
	badCRC[4] ^= 1
	for _, tc := range []struct {
		name  string
		tail  []byte
		valid int // bytes of tail in the valid prefix
		seq   int64
	}{
		{"next seq", good, len(good), 6},
		{"stale then next", append(frame(`{"seq":4}`), good...), len(frame(`{"seq":4}`)) + len(good), 6},
		{"gap", frame(`{"seq":7}`), 0, 5},
		{"bad crc", badCRC, 0, 5},
		{"null", frame(`null`), 0, 5},
		{"no seq", frame(`{"cells":{"alu":{"cellviews":{}}}}`), 0, 5},
		{"null cell", frame(`{"seq":6,"cells":{"alu":null}}`), 0, 5},
		{"versionless cellview", frame(`{"seq":6,"cells":{"alu":{"cellviews":{"schematic":{"versions":[],"default":1}}}}}`), 0, 5},
		{"not json", frame(`{"seq":6,`), 0, 5},
		{"empty frame", make([]byte, recordHeaderLen), 0, 5},
		{"length past the end", good[:len(good)-1], 0, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := decodeMeta([]byte(`{"name":"x","seq":5}`))
			if err != nil {
				t.Fatal(err)
			}
			log := append(frame(`{"seq":5,"views":{"schematic":"schematic"}}`), tc.tail...)
			if n := replay(m, log); n != int64(len(log)-len(tc.tail)+tc.valid) {
				t.Fatalf("valid prefix %d of %d bytes, want %d", n, len(log), len(log)-len(tc.tail)+tc.valid)
			}
			if m.Seq != tc.seq || len(m.Views) != 0 {
				t.Fatalf("replayed to seq %d with views %v, want seq %d and no views", m.Seq, m.Views, tc.seq)
			}
			if _, ok := m.Cells["alu"]; ok != (tc.seq == 6) {
				t.Fatalf("cell alu present = %t after replaying to seq %d", ok, m.Seq)
			}
		})
	}
}
