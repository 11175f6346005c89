package jcf

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/oms/backend"
)

// Anchor tests: a differential save continues from the manifest this
// framework committed only while the backend's CURRENT holds exactly
// the bytes of that commit. Any other CURRENT, however alike, is
// decoded and answered with a full base.

// saveStepKind saves once more after a few steps and returns the kind of
// epoch the save committed.
func saveStepKind(t *testing.T, w *modelWorld, b backend.Backend) string {
	t.Helper()
	w.create(t)
	w.step(t)
	if err := w.fw.SaveTo(b); err != nil {
		t.Fatal(err)
	}
	m, err := backend.LoadManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	return saveKind(m)
}

// TestSaveAnchorsOnCommittedBytes: between two saves, CURRENT is
// rewritten with the same epoch and FeedLSN but other bytes — the same
// manifest indented, or the manifest without its last delta. The next
// save must not continue the chain: it writes a full base, which loads
// back to the live store at its FeedLSN.
func TestSaveAnchorsOnCommittedBytes(t *testing.T) {
	rewrites := map[string]func(m backend.Manifest) ([]byte, error){
		"indented": func(m backend.Manifest) ([]byte, error) {
			return json.MarshalIndent(&m, "", " ")
		},
		"last-delta-dropped": func(m backend.Manifest) ([]byte, error) {
			m.Deltas = m.Deltas[:len(m.Deltas)-1]
			return json.Marshal(&m)
		},
	}
	for name, rewrite := range rewrites {
		t.Run(name, func(t *testing.T) {
			w := newModelWorld(t, 3, 30)
			seg, err := backend.OpenSegment(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"full", "delta", "delta"} {
				if kind := saveStepKind(t, w, seg); kind != want {
					t.Fatalf("set-up committed a %s epoch, want %s", kind, want)
				}
			}
			m, err := backend.LoadManifest(seg)
			if err != nil {
				t.Fatal(err)
			}
			data, err := rewrite(m)
			if err != nil {
				t.Fatal(err)
			}
			if err := seg.Put(backend.ManifestKey, data); err != nil {
				t.Fatal(err)
			}
			if got, err := backend.LoadManifest(seg); err != nil || got.Epoch != m.Epoch || got.FeedLSN != m.FeedLSN {
				t.Fatalf("rewritten manifest: epoch %d feed %d (%v), want epoch %d feed %d", got.Epoch, got.FeedLSN, err, m.Epoch, m.FeedLSN)
			}
			if kind := saveStepKind(t, w, seg); kind != "full" {
				t.Fatalf("save over a rewritten CURRENT committed a %s epoch, want full", kind)
			}
			assertLoadsEqual(t, w.fw, seg)
		})
	}
}

// failCURRENT fails the next Put of CURRENT: before anything is written
// (lost), or after the record is durable (written).
type failCURRENT struct {
	backend.Backend
	fail    bool
	written bool
}

func (f *failCURRENT) SupportsDeltas() bool { return true }

func (f *failCURRENT) Put(name string, payload []byte) error {
	if name != backend.ManifestKey || !f.fail {
		return f.Backend.Put(name, payload)
	}
	f.fail = false
	if f.written {
		if err := f.Backend.Put(name, payload); err != nil {
			return err
		}
	}
	return errors.New("injected CURRENT put failure")
}

// TestSaveAfterFailedCommit: a save whose CURRENT Put fails, with
// nothing written or with the record written, is followed by a save
// that commits and loads back to the live store. A lost Put leaves the
// anchor in place, so that save is a delta; a written one moves CURRENT
// past the anchor, so it is a full base.
func TestSaveAfterFailedCommit(t *testing.T) {
	for _, tc := range []struct {
		name    string
		written bool
		kind    string
	}{{"lost", false, "delta"}, {"written", true, "full"}} {
		t.Run(tc.name, func(t *testing.T) {
			w := newModelWorld(t, 3, 30)
			seg, err := backend.OpenSegment(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			fb := &failCURRENT{Backend: seg, written: tc.written}
			for _, want := range []string{"full", "delta"} {
				if kind := saveStepKind(t, w, fb); kind != want {
					t.Fatalf("set-up committed a %s epoch, want %s", kind, want)
				}
			}
			w.create(t)
			fb.fail = true
			if err := w.fw.SaveTo(fb); err == nil {
				t.Fatal("save with a failing CURRENT Put succeeded")
			}
			if kind := saveStepKind(t, w, fb); kind != tc.kind {
				t.Fatalf("save after the failed commit committed a %s epoch, want %s", kind, tc.kind)
			}
			assertLoadsEqual(t, w.fw, fb)
			if kind := saveStepKind(t, w, fb); kind != "delta" {
				t.Fatalf("second save after the failed commit committed a %s epoch, want delta", kind)
			}
			assertLoadsEqual(t, w.fw, fb)
		})
	}
}

// TestSaveRewritesIndentedCURRENTCompact: a CURRENT this build did not
// write, here the segment-v1 fixture's re-encoded indented, loads, and
// the loaded framework's next save writes the compact encoding, which
// reloads to the same store and anchors the save after it.
func TestSaveRewritesIndentedCURRENTCompact(t *testing.T) {
	dir := copyFixture(t, "segment-v1")
	indent, err := backend.OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := backend.LoadManifest(indent)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := indent.Put(backend.ManifestKey, raw); err != nil {
		t.Fatal(err)
	}
	fw, seg := loadSegmentDir(t, dir)
	if err := fw.SaveTo(seg); err != nil {
		t.Fatal(err)
	}
	raw, err = seg.Get(backend.ManifestKey)
	if err != nil {
		t.Fatal(err)
	}
	if m, err = backend.DecodeManifest(raw); err != nil {
		t.Fatal(err)
	}
	compact, err := backend.EncodeManifest(&m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, compact) || bytes.ContainsRune(raw, '\n') {
		t.Fatalf("CURRENT after the save is not the compact encoding: %.60q", raw)
	}
	assertLoadsEqual(t, fw, seg)
	if _, err := fw.CreateUser("after-compact"); err != nil {
		t.Fatal(err)
	}
	if err := fw.SaveTo(seg); err != nil {
		t.Fatal(err)
	}
	if m, err := backend.LoadManifest(seg); err != nil || saveKind(m) != "delta" {
		t.Fatalf("save after the compact rewrite: %s epoch (%v), want delta", saveKind(m), err)
	}
	assertLoadsEqual(t, fw, seg)
}
