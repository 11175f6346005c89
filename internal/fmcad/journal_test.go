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
	"regexp"
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

// untilCheckpoint commits configs until the journal is past the
// checkpoint threshold, so that l's next commit writes a checkpoint.
func untilCheckpoint(t *testing.T, l *Library) {
	t.Helper()
	for i := 0; !l.checkpointDue(); i++ {
		if err := l.CreateConfig("pad" + strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// dueCheckpoint makes l's next commit a checkpoint, as a journal past the
// threshold would, without the thousand or so commits that takes. Until a
// checkpoint resets it, l.logSize is only compared with the threshold, so
// raising it changes nothing else.
func dueCheckpoint(l *Library) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.logSize = max(l.metaSize, checkpointFloor) + 1
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
// a seeded script of checkouts, checkins (some carrying properties),
// cancels, property tags, cells and configs. For each commit it builds every state a crash can leave:
//
//   - for an append, the journal with the new record (behind the header
//     that names .meta, after a checkpoint) cut to every byte prefix, and
//     with every prefix followed by zeros up to the record's length (the
//     file grew, the data did not reach the disk);
//   - for a checkpoint, the temp file written but not renamed, and the
//     rename done but the journal not yet truncated.
//
// Every fifth op is made to checkpoint (see dueCheckpoint). Each state
// must open, never with ErrCorrupt, to the root after the last whole
// record; accept one more mutation; and open again to include it.
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
	var states, appends, checkpoints, tagged int
	for i := 0; i < ops; i++ {
		if i%5 == 4 {
			dueCheckpoint(l)
		}
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
			switch rng.Intn(4) {
			case 0:
				desc = "cancel " + wf.Cell
				err = s.Cancel(wf)
			case 1:
				// A checkin that carries properties is one record.
				desc = "tagged checkin " + wf.Cell
				wf.Props = map[string]string{"tag": strconv.Itoa(i), "by": "anna"}
				_, err = s.Checkin(wf)
				tagged++
			default:
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
	if appends == 0 || checkpoints < 3 || tagged == 0 {
		t.Fatalf("script lost coverage: %d appends, %d checkpoints, %d tagged checkins", appends, checkpoints, tagged)
	}
	t.Logf("%d ops (%d appends, %d checkpoints, %d tagged checkins): %d crash states", ops, appends, checkpoints, tagged, states)
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

// A tool run's checkout and tagged checkin between two checkpoints
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
	// One tool run's metadata work, as core's capture step does it.
	toolRun := func(i int) {
		t.Helper()
		wf, err := s.Checkout("cell0", "schematic")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wf.Path, []byte("run "+strconv.Itoa(i)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		wf.Props = map[string]string{"jcf_version": strconv.Itoa(i)}
		if _, err := s.Checkin(wf); err != nil {
			t.Fatal(err)
		}
	}
	toolRun(0) // stages the workfile
	// Checkpoint, so that the next cycles fit before the next.
	dueCheckpoint(l)
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
	// Each cycle appends two records of cell0.
	if rec := int64(len(appendRecord(nil, l.meta))); l.logSize+2*cycles*(rec+64) >= max(l.metaSize, checkpointFloor) {
		t.Fatalf("test premise broken: checkpoint threshold too small for %d cycles of %d-byte records", cycles, rec)
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
			if l.checkpointDue() {
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

// frame returns the journal frame of a payload.
func frame(payload string) []byte {
	rec := append(make([]byte, recordHeaderLen), payload...)
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE([]byte(payload)))
	return rec
}

// Replay applies the next seq, skips the seqs the checkpoint holds, and
// ends the valid prefix at the first frame it cannot trust. A record is
// checked whole against the root before any of it is applied.
func TestReplayStopsAtInvalidRecord(t *testing.T) {
	const edit = `"reg":{"edits":{"schematic":{"versions":[3],"default":3,"locked_by":"anna","props":{"v1":{"tag":"x"}}}}}`
	good := frame(`{"seq":6,"cells":{"alu":{"cellviews":{}},` + edit + `}}`)
	badCRC := bytes.Clone(frame(`{"seq":6}`))
	badCRC[4] ^= 1
	invalid := func(cells string) []byte { return frame(`{"seq":6,"cells":{"alu":{"cellviews":{}},` + cells + `}}`) }
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
		{"edit of an unknown cell", invalid(`"fpu":{"edits":{"schematic":{"versions":[1],"default":1}}}`), 0, 5},
		{"new cellview without versions", invalid(`"reg":{"edits":{"layout":{"versions":[],"default":1}}}`), 0, 5},
		{"version not above the last", invalid(`"reg":{"edits":{"schematic":{"versions":[2],"default":2}}}`), 0, 5},
		{"versions not ascending", invalid(`"reg":{"edits":{"schematic":{"versions":[4,3],"default":4}}}`), 0, 5},
		{"null edit", invalid(`"reg":{"edits":{"schematic":null}}`), 0, 5},
		{"whole cell and edits", invalid(`"reg":{"cellviews":{},"edits":{}}`), 0, 5},
		{"neither whole nor edits", invalid(`"reg":{}`), 0, 5},
		{"null config", frame(`{"seq":6,"cells":{"alu":{"cellviews":{}}},"configs":{"top":null}}`), 0, 5},
		{"header past the head", append(frame(`{"seq":5,"meta_crc":0}`), good...), 0, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := decodeMeta([]byte(`{"name":"x","seq":5,"cells":{"reg":{"cellviews":{"schematic":{"versions":[1,2],"default":2}}}}}`))
			if err != nil {
				t.Fatal(err)
			}
			log := append(frame(`{"seq":5,"views":{"schematic":"schematic"}}`), tc.tail...)
			if n := replay(m, log, 0); n != int64(len(log)-len(tc.tail)+tc.valid) {
				t.Fatalf("valid prefix %d of %d bytes, want %d", n, len(log), len(log)-len(tc.tail)+tc.valid)
			}
			if m.Seq != tc.seq || len(m.Views) != 0 {
				t.Fatalf("replayed to seq %d with views %v, want seq %d and no views", m.Seq, m.Views, tc.seq)
			}
			if _, ok := m.Cells["alu"]; ok != (tc.seq == 6) {
				t.Fatalf("cell alu present = %t after replaying to seq %d", ok, m.Seq)
			}
			want := `{"versions":[1,2],"default":2}`
			if tc.seq == 6 {
				want = `{"versions":[1,2,3],"default":3,"locked_by":"anna","props":{"v1":{"tag":"x"}}}`
			}
			if got, _ := json.Marshal(m.Cells["reg"].Cellviews["schematic"]); string(got) != want {
				t.Fatalf("reg/schematic replayed to %s, want %s", got, want)
			}
		})
	}
}

// The journal names the .meta it follows. A journal whose header names
// another one is ignored and cut by the next append: a build from before
// the journal that rewrites .meta behind the library, unaware of the
// journal, loses nothing it wrote, and its .meta is what opens.
func TestJournalHeaderNamesCheckpoint(t *testing.T) {
	l := newLib(t)
	mustCell(t, l, "alu", "schematic")
	log := readFiles(t, l.Dir(), logFileName)[0]
	ckpt := readFiles(t, l.Dir(), MetaFileName)[0]
	head := frame(fmt.Sprintf(`{"seq":0,"meta_crc":%d}`, crc32.ChecksumIEEE(ckpt)))
	if !bytes.HasPrefix(log, head) {
		t.Fatalf("the journal does not start with a header naming .meta:\n%q", log)
	}

	// A pre-journal build opens .meta alone and writes its next mutation
	// to .meta whole, with the seq the journal already gave alu.
	old, err := decodeMeta(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	old.Seq = l.Seq()
	old.Views["pcb"] = "pcb"
	rewritten := appendMeta(nil, old)
	if err := os.WriteFile(filepath.Join(l.Dir(), MetaFileName), rewritten, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(l.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalRoot(t, l2.meta); !bytes.Equal(got, rewritten) {
		t.Fatalf("reopened library is not the rewritten .meta:\n got %s\nwant %s", got, rewritten)
	}
	if l2.logSize != 0 || !l2.logCut {
		t.Fatalf("foreign journal kept: logSize %d, logCut %t", l2.logSize, l2.logCut)
	}
	mustCell(t, l2, "reg")
	requireOnDisk(t, l2, "after a mutation over the foreign journal")
	if log := readFiles(t, l.Dir(), logFileName)[0]; !bytes.HasPrefix(log, frame(fmt.Sprintf(`{"seq":%d,"meta_crc":%d}`, old.Seq, crc32.ChecksumIEEE(rewritten)))) {
		t.Fatalf("the next append did not cut the foreign journal and name the rewritten .meta:\n%q", log)
	}
}

// A Checkout, Checkin, SetProperty and tagged Checkin record holds what
// the mutation wrote, so its bytes, numbers aside, are the same at 8 versions as at
// 512, and so is the number of checkpoints per 1,000 commits.
func TestJournalRecordFlatInHistory(t *testing.T) {
	digits := regexp.MustCompile(`[0-9]+`)
	records := map[int][]string{}
	checkpoints := map[int]int{}
	for _, history := range []int{8, 512} {
		l := historyLib(t, 1, history)
		s := l.NewSession("anna")
		var recs []string
		record := func(op string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s at %d versions: %v", op, history, err)
			}
			rec := appendRecord(nil, l.meta)[recordHeaderLen:]
			if _, err := decodeMeta(rec); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("the .meta decoder took a %s record (err %v): %s", op, err, rec)
			}
			recs = append(recs, digits.ReplaceAllString(string(rec), "N"))
		}
		wf, err := s.Checkout("cell0000", "schematic")
		record("Checkout", err)
		num, err := s.Checkin(wf)
		record("Checkin", err)
		record("SetProperty", l.SetProperty("cell0000", "schematic", num, "jcf_version", "1"))
		if wf, err = s.Checkout("cell0000", "schematic"); err != nil {
			t.Fatal(err)
		}
		wf.Props = map[string]string{"jcf_version": "2"}
		_, err = s.Checkin(wf)
		record("tagged Checkin", err)
		records[history] = recs

		// 1,000 commits of the tool run's shape without its version file.
		logSize := l.logSize
		for i := 0; i < 1000; i++ {
			var err error
			switch i % 3 {
			case 0:
				wf, err = s.Checkout("cell0000", "schematic")
			case 1:
				err = s.Cancel(wf)
			default:
				err = l.SetProperty("cell0000", "schematic", num, "jcf_version", strconv.Itoa(i))
			}
			if err != nil {
				t.Fatal(err)
			}
			if l.logSize < logSize {
				checkpoints[history]++
			}
			logSize = l.logSize
		}
		requireOnDisk(t, l, fmt.Sprintf("after 1,000 commits at %d versions", history))
	}
	for i, op := range []string{"Checkout", "Checkin", "SetProperty", "tagged Checkin"} {
		if records[8][i] != records[512][i] {
			t.Errorf("%s record grows with history:\n   8 versions: %s\n 512 versions: %s", op, records[8][i], records[512][i])
		}
	}
	if checkpoints[512] > checkpoints[8]+1 {
		t.Errorf("checkpoints per 1,000 commits grow with history: %d at 8 versions, %d at 512", checkpoints[8], checkpoints[512])
	}
	t.Logf("checkpoints per 1,000 commits: %d at 8 versions, %d at 512", checkpoints[8], checkpoints[512])
}

// historyLib returns a library of cells cellNNNN, each with a schematic
// cellview of the given number of versions, each version tagged with a
// jcf_version property as the hybrid framework tags it. It is written as
// a .meta, the newest version's design file beside it, and opened.
func historyLib(t testing.TB, cells, versions int) *Library {
	t.Helper()
	m := newMeta("history")
	m.Views["schematic"] = "schematic"
	dir := filepath.Join(t.TempDir(), "lib")
	for i := 0; i < cells; i++ {
		cv := &cellviewMeta{Default: versions, Props: map[string]map[string]string{}}
		for v := 1; v <= versions; v++ {
			cv.Versions = append(cv.Versions, v)
			cv.Props[versionKey(v)] = map[string]string{"jcf_version": strconv.Itoa(v)}
		}
		cell := fmt.Sprintf("cell%04d", i)
		m.Cells[cell] = &cellMeta{Cellviews: map[string]*cellviewMeta{"schematic": cv}}
		if err := writeDesignFile(filepath.Join(dir, cell, "schematic", fmt.Sprintf("v%d.cv", versions)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, MetaFileName), appendMeta(nil, m), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// testdata/parent-journal holds a .meta and .meta.log as the build before
// cellview edits (commit 0829127) wrote them: a checkpoint at seq 149,
// then 13 records of whole views, cells and configs (a view, cells,
// cellviews, a checkout, a checkin, two property tags, a checkout left
// held and two config edits). want.json is that build's root after them,
// json.Marshal'd. The journal must replay to exactly that root, and
// records this build appends behind the older ones must replay too.
func TestOpenParentJournal(t *testing.T) {
	src := filepath.Join("testdata", "parent-journal")
	dir := t.TempDir()
	for _, name := range []string{MetaFileName, logFileName} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join(src, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalRoot(t, l.meta); !bytes.Equal(got, want) {
		t.Fatalf("the older journal replayed to\n %s\nwant\n %s", got, want)
	}
	if l.logCut || l.logSize != int64(len(readFiles(t, dir, logFileName)[0])) {
		t.Fatalf("replay kept %d journal bytes (cut %t), want all", l.logSize, l.logCut)
	}
	if err := l.SetProperty("alu", "schematic", 2, "tag", "second"); err != nil {
		t.Fatal(err)
	}
	mustCell(t, l, "fpu", "layout")
	requireOnDisk(t, l, "after appending behind the older records")
}
