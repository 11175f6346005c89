package fmcad

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// FuzzAppendMeta holds the hand-written .meta encoder to encoding/json.
// For any metadata Open accepts, plus records named by an arbitrary
// string, appendMeta must produce exactly json.Marshal's bytes. After a
// view, a cell, a config and two cellviews of a next() root are written
// through the edit-tracking methods the mutations use, it must produce
// json.Marshal's bytes of the new root, and the old root must still
// encode as before. The new root's journal record, replayed over the old
// root as Open decodes it, must give the new root, and the .meta decoder,
// which is what a build that knows only whole-cell records reads them
// with, must refuse it. Then a seeded script of public mutations runs on
// the metadata, and each commit's record must replay the same way.
func FuzzAppendMeta(f *testing.F) {
	full := `{"name":"lib","seq":7,"views":{"layout":"layout","schematic":"schematic"},` +
		`"cells":{"alu":{"cellviews":{"schematic":{"versions":[1,2,3],"default":3,"locked_by":"anna",` +
		`"props":{"v2":{"jcf_version":"17"},"v3":{}}},"layout":{"versions":[1],"default":1,"props":{}}}},` +
		`"reg":{"cellviews":{}}},"configs":{"top":{"alu/schematic":2,"config:sub":0},"sub":{"config:leaf":0},"leaf":{}}}`
	for _, seed := range []struct{ doc, name string }{
		{`{}`, ""},
		{full, "anna"},
		{full, `quote" back\slash`},
		{full, "<tag> & </tag>"},
		{full, "ctl \x00\x01\x08\x0c\n\r\t\x1f\x7f"},
		{full, "Gr\u00fc\u00dfe \u8a2d\u8a08 \u2028 \u2029 \U0001f702"},
		{full, "bad utf8 \xff\xfe \xc3"},
		{`{"name":"esc \"\\ <& \ud834\udd1e \u2029","views":null,"cells":null,"configs":null}`, "x"},
		{`{"name":"neg","seq":-3,"cells":{"c":{"cellviews":{"v":{"versions":[-1,0,9007199254740993],"default":-1}}}}}`, "config:"},
	} {
		f.Add([]byte(seed.doc), seed.name)
	}
	f.Fuzz(func(t *testing.T, doc []byte, name string) {
		m, err := decodeMeta(doc)
		if err != nil {
			return
		}
		m.Name += name
		m.Views[name] = name
		m.Cells = m.Cells.set(name, &cellMeta{Cellviews: map[string]*cellviewMeta{
			name: {Versions: []int{1, 2}, Default: 2, LockedBy: name,
				Props: pmapFrom(map[string]map[string]string{"v2": {name: name}, name: nil})},
			"": {Versions: []int{1}, Default: 1, Props: pmapFrom(map[string]map[string]string{})},
		}})
		m.Configs[name] = map[string]int{cvKey(name, name): 2, configRefPrefix + name: 0}
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendMeta(nil, m); !bytes.Equal(got, want) {
			t.Fatalf("encode differs from json.Marshal:\n got %s\nwant %s", got, want)
		}

		next := m.next()
		next.Seq++
		cv := next.editCellview(name, name)
		cv.Versions = append(cv.Versions, 3)
		cv.Default = 3
		cv.LockedBy = ""
		next.setProperty(name, name, 2, name+"/", name)
		next.setProperty(name, name, 3, name, "")
		next.addCellview(name, name+"/")
		next.setView(name+"/", name)
		next.setCell(name+"/", &cellMeta{Cellviews: map[string]*cellviewMeta{name: {Versions: []int{4}, Default: 4}}})
		next.setConfig(name, map[string]int{cvKey(name, name): 3, name: -1})
		wantNext, err := json.Marshal(next)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendMeta(nil, next); !bytes.Equal(got, wantNext) {
			t.Fatalf("encode of the next root differs from json.Marshal:\n got %s\nwant %s", got, wantNext)
		}
		if got := appendMeta(nil, m); !bytes.Equal(got, want) {
			t.Fatalf("editing the next root changed the old one:\n got %s\nwant %s", got, want)
		}
		rec := requireRecordReplays(t, m, next)
		if _, err := decodeMeta(rec[recordHeaderLen:]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("the .meta decoder took a record of cellview edits (err %v): %s", err, rec[recordHeaderLen:])
		}

		// The script: cells and views of the doc, except names that would
		// lead out of the library, and of name.
		dir := filepath.Join(t.TempDir(), "a", "lib")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, MetaFileName), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cells, views := []string{"c0", "c1", name}, []string{"schematic", name}
		for _, c := range l.meta.Cells.keys() {
			if filepath.IsLocal(c) {
				cells = append(cells, c)
			}
		}
		for v := range l.meta.Views {
			if filepath.IsLocal(v) {
				views = append(views, v)
			}
		}
		slices.Sort(cells)
		slices.Sort(views)
		runScript(t, l, rand.New(rand.NewSource(int64(len(doc)))), cells, views, func(parent *meta) {
			requireRecordReplays(t, parent, l.meta)
		})
	})
}

// requireRecordReplays fails unless the journal record of child, a root
// built from parent, replayed over parent as Open decodes it, gives child
// as Open decodes it. Both sides go through one JSON round trip, which
// turns invalid UTF-8 into U+FFFD as a checkpoint's reopen does. It
// returns the record.
func requireRecordReplays(t testing.TB, parent, child *meta) []byte {
	t.Helper()
	rec := appendRecord(nil, child)
	replayed, err := decodeMeta(appendMeta(nil, parent))
	if err != nil {
		t.Fatal(err)
	}
	if n := replay(replayed, rec, 0); n != int64(len(rec)) {
		t.Fatalf("replay took %d of the record's %d bytes: %s", n, len(rec), rec[recordHeaderLen:])
	}
	reopened, err := decodeMeta(marshalRoot(t, child))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshalRoot(t, replayed), marshalRoot(t, reopened); !bytes.Equal(got, want) {
		t.Fatalf("replayed record %s differs from the new root:\n got %s\nwant %s", rec[recordHeaderLen:], got, want)
	}
	return rec
}

// runScript runs 40 public mutations picked by rng on l over the given
// cells and views, calling check with the old root after each one that
// commits once (a checkout whose working copy cannot be staged commits
// its lock and its release).
func runScript(t testing.TB, l *Library, rng *rand.Rand, cells, views []string, check func(parent *meta)) {
	t.Helper()
	pick := func(names []string) string { return names[rng.Intn(len(names))] }
	sessions := []*Session{l.NewSession("anna"), l.NewSession("bert")}
	workfiles := make([]*Workfile, len(sessions))
	ops := []func(){
		func() { _ = l.DefineView(pick(views), "schematic") },
		func() { _ = l.CreateCell(pick(cells)) },
		func() { _ = l.CreateCellview(pick(cells), pick(views)) },
		func() { _ = l.SetProperty(pick(cells), pick(views), 1+rng.Intn(3), pick(cells), pick(views)) },
		func() { _ = l.CreateConfig(pick(views)) },
		func() { _ = l.AddToConfig(pick(views), pick(cells), pick(views), 1+rng.Intn(3)) },
		func() { _ = l.AddConfigToConfig(pick(views), pick(views)) },
		func() {
			i := rng.Intn(len(sessions))
			if workfiles[i] == nil {
				workfiles[i], _ = sessions[i].Checkout(pick(cells), pick(views))
				return
			}
			if rng.Intn(3) == 0 {
				_ = sessions[i].Cancel(workfiles[i])
			} else {
				_, _ = sessions[i].Checkin(workfiles[i])
			}
			workfiles[i] = nil
		},
	}
	for i := 0; i < 40; i++ {
		parent := l.meta
		ops[rng.Intn(len(ops))]()
		if l.meta.Seq == parent.Seq+1 {
			check(parent)
		}
	}
}

// A session's snapshot must not alias the library's metadata: no later
// mutation of the library may show through it.
func TestSnapshotIndependentOfLibrary(t *testing.T) {
	l := newLib(t)
	mustCell(t, l, "alu", "schematic")
	for _, c := range []string{"top", "sub"} {
		if err := l.CreateConfig(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.SetProperty("alu", "schematic", 1, "owner", "anna"); err != nil {
		t.Fatal(err)
	}
	s := l.NewSession("anna")
	before := appendMeta(nil, s.snap)

	if err := l.SetProperty("alu", "schematic", 1, "owner", "bert"); err != nil {
		t.Fatal(err)
	}
	if err := l.SetProperty("alu", "schematic", 1, "tag", "new"); err != nil {
		t.Fatal(err)
	}
	if err := l.AddToConfig("top", "alu", "schematic", 1); err != nil {
		t.Fatal(err)
	}
	writeVersion(t, l.NewSession("bert"), "alu", "schematic", "v2\n")
	if err := l.CreateCell("reg"); err != nil {
		t.Fatal(err)
	}
	if err := l.CreateCellview("alu", "layout"); err != nil {
		t.Fatal(err)
	}
	if err := l.AddConfigToConfig("top", "sub"); err != nil {
		t.Fatal(err)
	}

	if after := appendMeta(nil, s.snap); !bytes.Equal(after, before) {
		t.Fatalf("snapshot changed with the library:\nbefore %s\n after %s", before, after)
	}
	if lib := appendMeta(nil, l.meta); bytes.Equal(lib, before) {
		t.Fatal("library metadata did not change")
	}
}

// Libraries written before .meta became compact used json.MarshalIndent;
// they must still open, unchanged. Their first mutation goes to the
// journal, which a reopen replays over the indented checkpoint, and their
// first checkpoint rewrites .meta compact.
func TestOpenIndentedMeta(t *testing.T) {
	const indented = `{
 "name": "oldlib",
 "seq": 9,
 "views": {
  "schematic": "schematic"
 },
 "cells": {
  "alu": {
   "cellviews": {
    "schematic": {
     "versions": [
      1,
      2
     ],
     "default": 2,
     "props": {
      "v2": {
       "jcf_version": "17"
      }
     }
    }
   }
  }
 },
 "configs": {
  "top": {
   "alu/schematic": 2
  }
 }
}`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, MetaFileName), []byte(indented), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "oldlib" || l.Seq() != 9 {
		t.Fatalf("Name=%q Seq=%d", l.Name(), l.Seq())
	}
	if def, err := l.DefaultVersion("alu", "schematic"); err != nil || def != 2 {
		t.Fatalf("DefaultVersion = %d, %v", def, err)
	}
	if v, ok, err := l.GetProperty("alu", "schematic", 2, "jcf_version"); err != nil || !ok || v != "17" {
		t.Fatalf("GetProperty = %q, %t, %v", v, ok, err)
	}
	if num, err := l.ConfigVersion("top", "alu", "schematic"); err != nil || num != 2 {
		t.Fatalf("ConfigVersion = %d, %v", num, err)
	}

	if err := l.CreateCell("reg"); err != nil {
		t.Fatal(err)
	}
	if data := readFiles(t, dir, MetaFileName)[0]; string(data) != indented {
		t.Fatalf("the first mutation rewrote .meta:\n%s", data)
	}
	requireOnDisk(t, l, "after the first mutation")

	untilCheckpoint(t, l)
	if err := l.CreateCell("ckpt"); err != nil {
		t.Fatal(err)
	}
	files := readFiles(t, dir, MetaFileName, logFileName)
	if want := marshalRoot(t, l.meta); !bytes.Equal(files[0], want) || len(files[1]) != 0 {
		t.Fatalf("checkpointed .meta is not compact JSON of the root (%d journal bytes left):\n%s", len(files[1]), files[0])
	}
	requireOnDisk(t, l, "after the checkpoint")
}

// Open must reject records a later lookup or mutation would dereference
// as nil, instead of panicking there.
func TestOpenRejectsNullRecords(t *testing.T) {
	for _, tc := range []struct{ name, doc string }{
		{"not json", `{"name":`},
		{"null cell", `{"name":"x","cells":{"alu":null}}`},
		{"null cellviews", `{"name":"x","cells":{"alu":{"cellviews":null}}}`},
		{"missing cellviews", `{"name":"x","cells":{"alu":{}}}`},
		{"null cellview", `{"name":"x","cells":{"alu":{"cellviews":{"schematic":null}}}}`},
		{"null versions", `{"name":"x","cells":{"alu":{"cellviews":{"schematic":{"versions":null,"default":1}}}}}`},
		{"empty versions", `{"name":"x","cells":{"alu":{"cellviews":{"schematic":{"versions":[],"default":1}}}}}`},
		{"null config", `{"name":"x","configs":{"top":null}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, MetaFileName), []byte(tc.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want ErrCorrupt", err)
			}
		})
	}

	// Null top-level maps are normalized, not rejected.
	dir := t.TempDir()
	doc := `{"name":"x","views":null,"cells":null,"configs":null}`
	if err := os.WriteFile(filepath.Join(dir, MetaFileName), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.DefineView("schematic", "schematic"); err != nil {
		t.Fatal(err)
	}
	mustCell(t, l, "alu", "schematic")
	if err := l.CreateConfig("top"); err != nil {
		t.Fatal(err)
	}
}

// A checkout whose working copy cannot be staged must not leave the
// cellview locked: the caller got no Workfile to Cancel.
func TestCheckoutStageFailureReleasesLock(t *testing.T) {
	l := newLib(t)
	mustCell(t, l, "alu", "schematic")
	// A regular file where anna's workspace directory belongs.
	ws := filepath.Join(l.Dir(), ".workspace")
	if err := os.MkdirAll(ws, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ws, "anna"), []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if wf, err := l.NewSession("anna").Checkout("alu", "schematic"); err == nil {
		t.Fatalf("Checkout staged into a file: %+v", wf)
	}
	if who, err := l.LockedBy("alu", "schematic"); err != nil || who != "" {
		t.Fatalf("LockedBy = %q, %v; want free", who, err)
	}
	if num := writeVersion(t, l.NewSession("bert"), "alu", "schematic", "v2\n"); num != 2 {
		t.Fatalf("bert's checkin = v%d", num)
	}
}

// writeFailure is a point at which a mutation's disk write can fail. prep
// commits what it takes for the library's next commit to reach that
// point; arm makes the write there fail and returns the func that disarms
// it.
type writeFailure struct {
	name string
	prep func(t *testing.T, l *Library)
	arm  func(t *testing.T, l *Library) func() error
}

// commitFailures fail a commit at its journal append or its checkpoint.
var commitFailures = []writeFailure{
	{"journal-append", func(t *testing.T, l *Library) {
		if l.checkpointDue() {
			if err := l.CreateConfig("checkpoint"); err != nil {
				t.Fatal(err)
			}
		}
	}, func(t *testing.T, l *Library) func() error {
		return block(t, filepath.Join(l.Dir(), logFileName))
	}},
	{"checkpoint", untilCheckpoint, func(t *testing.T, l *Library) func() error {
		return block(t, filepath.Join(l.Dir(), MetaFileName+".tmp"))
	}},
}

// A checkin whose version file or metadata cannot be written must leave
// the metadata files as they were and the checkout held, so the same
// Workfile can check in later.
func TestCheckinVersionWriteFailureKeepsCheckout(t *testing.T) {
	failures := append([]writeFailure{{"version-file", func(*testing.T, *Library) {}, func(t *testing.T, l *Library) func() error {
		// A directory where v2.cv belongs.
		v2 := l.VersionPath("alu", "schematic", 2)
		if err := os.Mkdir(v2, 0o755); err != nil {
			t.Fatal(err)
		}
		return func() error { return os.Remove(v2) }
	}}}, commitFailures...)
	for _, fail := range failures {
		t.Run(fail.name, func(t *testing.T) {
			l := newLib(t)
			mustCell(t, l, "alu", "schematic")
			s := l.NewSession("anna")
			wf, err := s.Checkout("alu", "schematic")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(wf.Path, []byte("v2\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			fail.prep(t, l)
			before := readFiles(t, l.Dir(), MetaFileName, logFileName)
			disarm := fail.arm(t, l)
			if num, err := s.Checkin(wf); err == nil {
				t.Fatalf("Checkin committed v%d", num)
			}
			if err := disarm(); err != nil {
				t.Fatal(err)
			}
			after := readFiles(t, l.Dir(), MetaFileName, logFileName)
			for i, name := range []string{MetaFileName, logFileName} {
				if !bytes.Equal(after[i], before[i]) {
					t.Fatalf("%s changed by a failed checkin:\nbefore %q\n after %q", name, before[i], after[i])
				}
			}
			requireOnDisk(t, l, "after the failed checkin")
			if who, _ := l.LockedBy("alu", "schematic"); who != "anna" {
				t.Fatalf("LockedBy = %q, want anna", who)
			}
			if def, _ := l.DefaultVersion("alu", "schematic"); def != 1 {
				t.Fatalf("DefaultVersion = %d, want 1", def)
			}
			if _, err := os.Stat(l.VersionPath("alu", "schematic", 2)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("uncommitted version left its file: %v", err)
			}

			num, err := s.Checkin(wf)
			if err != nil || num != 2 {
				t.Fatalf("retried Checkin = v%d, %v", num, err)
			}
			if data, err := l.ReadVersion("alu", "schematic", 2); err != nil || string(data) != "v2\n" {
				t.Fatalf("ReadVersion = %q, %v", data, err)
			}
			requireOnDisk(t, l, "after the retried checkin")
		})
	}
}

// A mutation whose journal append or checkpoint fails must not stay
// visible in memory nor on disk, and a cellview whose record could not be
// committed leaves no file.
func TestFailedFlushRollsBack(t *testing.T) {
	for _, fail := range commitFailures {
		t.Run(fail.name, func(t *testing.T) {
			l := newLib(t)
			mustCell(t, l, "alu")
			fail.prep(t, l)
			seq := l.Seq()
			disarm := fail.arm(t, l)
			if err := l.CreateCell("reg"); err == nil {
				t.Fatal("CreateCell committed without writing its metadata")
			}
			if err := l.CreateCellview("alu", "schematic"); err == nil {
				t.Fatal("CreateCellview committed without writing its metadata")
			}
			if got := strings.Join(l.Cells(), ","); got != "alu" || l.Seq() != seq {
				t.Fatalf("Cells = %s, Seq = %d (was %d)", got, l.Seq(), seq)
			}
			if views, _ := l.Cellviews("alu"); len(views) != 0 {
				t.Fatalf("Cellviews(alu) = %v", views)
			}
			if _, err := os.Stat(l.VersionPath("alu", "schematic", 1)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("uncommitted cellview left its file: %v", err)
			}
			if err := disarm(); err != nil {
				t.Fatal(err)
			}
			requireOnDisk(t, l, "after the failed mutations")

			mustCell(t, l, "reg", "schematic")
			if err := l.CreateCellview("alu", "schematic"); err != nil {
				t.Fatal(err)
			}
			requireOnDisk(t, l, "after the retried mutations")
		})
	}
}

// ParseInstances reads lines far longer than its scanner's initial buffer.
func TestParseInstancesLongLine(t *testing.T) {
	data := "payload " + strings.Repeat("x", 2<<20) + "\ninst u1 alu schematic\n"
	refs := ParseInstances([]byte(data))
	if len(refs) != 1 || refs[0] != (InstanceRef{Name: "u1", Cell: "alu", View: "schematic"}) {
		t.Fatalf("ParseInstances = %v", refs)
	}
}
