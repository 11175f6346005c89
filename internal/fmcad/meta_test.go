package fmcad

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzAppendMeta holds the hand-written .meta encoder and its per-cell
// cache to encoding/json. For any metadata Open accepts, plus records named
// by an arbitrary string, a cold encoder must produce exactly json.Marshal's
// bytes. After one cell of a next() root is edited the way the mutations
// edit it, the same (warm) encoder must produce json.Marshal's bytes of the
// new root, and the old root must still encode as before.
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
		m.Cells[name] = &cellMeta{Cellviews: map[string]*cellviewMeta{
			name: {Versions: []int{1, 2}, Default: 2, LockedBy: name,
				Props: map[string]map[string]string{"v2": {name: name}, name: nil}},
			"": {Versions: []int{1}, Default: 1, Props: map[string]map[string]string{}},
		}}
		m.Configs[name] = map[string]int{cvKey(name, name): 2, configRefPrefix + name: 0}
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var enc metaEncoder
		if got := enc.encode(m); !bytes.Equal(got, want) {
			t.Fatalf("encode differs from json.Marshal:\n got %s\nwant %s", got, want)
		}

		next := m.next()
		next.Seq++
		cv := next.editCellview(name, name)
		cv.Versions = append(cv.Versions, 3)
		cv.Default = 3
		cv.LockedBy = ""
		props := maps.Clone(cv.Props["v2"])
		if props == nil {
			props = map[string]string{}
		}
		props[name+"/"] = name
		cv.Props["v2"] = props
		wantNext, err := json.Marshal(next)
		if err != nil {
			t.Fatal(err)
		}
		if got := enc.encode(next); !bytes.Equal(got, wantNext) {
			t.Fatalf("warm encode differs from json.Marshal:\n got %s\nwant %s", got, wantNext)
		}
		if old, err := json.Marshal(m); err != nil || !bytes.Equal(old, want) {
			t.Fatalf("editing the next root changed the old one (%v):\n got %s\nwant %s", err, old, want)
		}
		if got := enc.encode(m); !bytes.Equal(got, want) {
			t.Fatalf("warm encode of the old root differs:\n got %s\nwant %s", got, want)
		}
	})
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
	before := bytes.Clone(new(metaEncoder).encode(s.snap))

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

	if after := new(metaEncoder).encode(s.snap); !bytes.Equal(after, before) {
		t.Fatalf("snapshot changed with the library:\nbefore %s\n after %s", before, after)
	}
	if lib := new(metaEncoder).encode(l.meta); bytes.Equal(lib, before) {
		t.Fatal("library metadata did not change")
	}
}

// Libraries written before .meta became compact used json.MarshalIndent;
// they must still open, and their first mutation rewrites them compact.
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
	data, err := os.ReadFile(filepath.Join(dir, MetaFileName))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(l.meta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("rewritten .meta is not compact JSON:\n%s", data)
	}
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

// A checkin whose version file cannot be written must leave .meta as it
// was and the checkout held, so the same Workfile can check in later.
func TestCheckinVersionWriteFailureKeepsCheckout(t *testing.T) {
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
	// A directory where v2.cv belongs.
	v2 := l.VersionPath("alu", "schematic", 2)
	if err := os.Mkdir(v2, 0o755); err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(l.Dir(), MetaFileName)
	before, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	if num, err := s.Checkin(wf); err == nil {
		t.Fatalf("Checkin wrote v%d over a directory", num)
	}
	after, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf(".meta changed by a failed checkin:\nbefore %s\n after %s", before, after)
	}
	if who, _ := l.LockedBy("alu", "schematic"); who != "anna" {
		t.Fatalf("LockedBy = %q, want anna", who)
	}
	if def, _ := l.DefaultVersion("alu", "schematic"); def != 1 {
		t.Fatalf("DefaultVersion = %d, want 1", def)
	}

	if err := os.Remove(v2); err != nil {
		t.Fatal(err)
	}
	num, err := s.Checkin(wf)
	if err != nil || num != 2 {
		t.Fatalf("retried Checkin = v%d, %v", num, err)
	}
	if data, err := l.ReadVersion("alu", "schematic", 2); err != nil || string(data) != "v2\n" {
		t.Fatalf("ReadVersion = %q, %v", data, err)
	}
}

// A mutation whose .meta rewrite fails must not stay visible in memory,
// and a cellview whose record could not be committed leaves no file.
func TestFailedFlushRollsBack(t *testing.T) {
	l := newLib(t)
	mustCell(t, l, "alu")
	seq := l.Seq()
	// A directory where the temp file of the rewrite belongs.
	tmp := filepath.Join(l.Dir(), MetaFileName+".tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.CreateCell("reg"); err == nil {
		t.Fatal("CreateCell committed without writing .meta")
	}
	if err := l.CreateCellview("alu", "schematic"); err == nil {
		t.Fatal("CreateCellview committed without writing .meta")
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

	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	mustCell(t, l, "reg", "schematic")
	if err := l.CreateCellview("alu", "schematic"); err != nil {
		t.Fatal(err)
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
