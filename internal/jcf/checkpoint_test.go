package jcf

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/oms"
	"repro/internal/oms/backend"
)

// Checkpoint tests: delta, overlay and full-base epochs must each load
// back to exactly the store that was saved, at every save and at every
// backend operation a crash could interrupt.

// saveKind classifies the epoch a manifest commits.
func saveKind(m backend.Manifest) string {
	switch {
	case m.BaseEpoch == m.Epoch:
		return "full"
	case m.Overlay == fmt.Sprintf("%s%d", omsPrefix, m.Epoch):
		return "overlay"
	}
	return "delta"
}

// modelWorld drives random mutations of a framework's store directly:
// design object versions with an int and a blob attribute, linked by
// the many-to-many derived and equivalent relationships.
type modelWorld struct {
	fw   *Framework
	r    *rand.Rand
	live []oms.OID
	n    int64
}

func newModelWorld(t *testing.T, seed int64, prefill int) *modelWorld {
	t.Helper()
	fw, err := New(Release30)
	if err != nil {
		t.Fatal(err)
	}
	w := &modelWorld{fw: fw, r: rand.New(rand.NewSource(seed))}
	for i := 0; i < prefill; i++ {
		w.create(t)
	}
	return w
}

func (w *modelWorld) blob() oms.Value {
	data := make([]byte, 16+w.r.Intn(48))
	for i := range data {
		data[i] = byte(w.r.Intn(256))
	}
	return oms.Value{Kind: oms.KindBlob, Blob: data}
}

func (w *modelWorld) pick() oms.OID { return w.live[w.r.Intn(len(w.live))] }

func (w *modelWorld) rel() string {
	if w.r.Intn(2) == 0 {
		return w.fw.rel.derived
	}
	return w.fw.rel.equivalent
}

func (w *modelWorld) create(t *testing.T) {
	t.Helper()
	w.n++
	created, err := applyOne(w.fw.store, func(b *oms.Batch) {
		b.Create("DesignObjectVersion", map[string]oms.Value{"num": oms.I(w.n), "data": w.blob()})
	})
	if err != nil {
		t.Fatal(err)
	}
	w.live = append(w.live, created[0])
}

// step applies one random operation: a create, a set, a link, an
// unlink, a cascade delete, or a batch that fails and must publish
// nothing.
func (w *modelWorld) step(t *testing.T) {
	t.Helper()
	st := w.fw.store
	if len(w.live) < 4 {
		w.create(t)
		return
	}
	switch op := w.r.Intn(10); {
	case op < 2:
		w.create(t)
	case op < 4:
		v := oms.I(w.r.Int63n(1000))
		name := "num"
		if w.r.Intn(2) == 0 {
			v, name = w.blob(), "data"
		}
		if _, err := applyOne(st, func(b *oms.Batch) { b.Set(w.pick(), name, v) }); err != nil {
			t.Fatal(err)
		}
	case op < 6:
		if err := w.fw.link(w.rel(), w.pick(), w.pick()); err != nil {
			t.Fatal(err)
		}
	case op < 7:
		from := w.pick()
		rel := w.rel()
		if ts := st.Targets(rel, from); len(ts) > 0 {
			if _, err := applyOne(st, func(b *oms.Batch) { b.Unlink(rel, from, ts[w.r.Intn(len(ts))]) }); err != nil {
				t.Fatal(err)
			}
		}
	case op < 8:
		i := w.r.Intn(len(w.live))
		if _, err := applyOne(st, func(b *oms.Batch) { b.Delete(w.live[i]) }); err != nil {
			t.Fatal(err)
		}
		w.live = slices.Delete(w.live, i, i+1)
	default:
		before := st.FeedLSN()
		b := oms.NewBatch()
		n := b.Create("DesignObjectVersion", map[string]oms.Value{"num": oms.I(-1)})
		b.Link(w.rel(), n, w.pick())
		b.Set(w.pick(), "num", oms.I(-2))
		b.Set(oms.OID(1<<40), "num", oms.I(-3)) // no such object
		if _, err := st.Apply(b); err == nil {
			t.Fatal("a batch naming a missing object committed")
		}
		if st.FeedLSN() != before {
			t.Fatal("a failed batch published records")
		}
	}
}

// touchAll sets an attribute on every live object, so the next overlay
// is as large as a full base.
func (w *modelWorld) touchAll(t *testing.T) {
	t.Helper()
	for _, oid := range w.live {
		if _, err := applyOne(w.fw.store, func(b *oms.Batch) { b.Set(oid, "data", w.blob()) }); err != nil {
			t.Fatal(err)
		}
	}
}

// assertLoadsEqual loads b and requires the store the framework holds
// now: byte-equal snapshot encoding and the same feed position.
func assertLoadsEqual(t *testing.T, fw *Framework, bk backend.Backend) {
	b := bk
	t.Helper()
	ld, err := LoadFrom(b)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := ld.store.Snapshot().Encode(), fw.store.Snapshot().Encode(); !bytes.Equal(a, b) {
		m, _ := backend.LoadManifest(bk)
		t.Fatalf("loaded store's snapshot differs from the saved store's %d %d %d %d %+v", len(a), len(b), ld.store.Count(""), fw.store.Count(""), m)
	}
	if got, want := ld.FeedLSN(), fw.FeedLSN(); got != want {
		t.Fatalf("loaded feed at %d, saved at %d", got, want)
	}
}

// TestReloadEquivalenceModel: seeded random sequences of creates, sets,
// links, unlinks, cascade deletes and failing batches, with a save
// after a random number of steps and a short delta chain so that delta,
// overlay and full epochs all occur, full ones forced by the overlay
// budget included. After every save, LoadFrom gives the saved store:
// byte-equal snapshot encoding and the same FeedLSN, and the
// jcf_durable_lsn gauge reads the committed manifest's FeedLSN.
func TestReloadEquivalenceModel(t *testing.T) {
	seeds, saves := int64(6), 60
	if testing.Short() {
		seeds, saves = 2, 30
	}
	total := map[string]int{}
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			w := newModelWorld(t, seed, 40)
			w.fw.maxDeltaChain = 2
			seg, err := backend.OpenSegment(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			kinds := map[string]int64{}
			for i := 0; i < saves; i++ {
				for n := w.r.Intn(6); n > 0; n-- {
					w.step(t)
				}
				if err := w.fw.SaveTo(seg); err != nil {
					t.Fatal(err)
				}
				m, err := backend.LoadManifest(seg)
				if err != nil {
					t.Fatal(err)
				}
				if got := w.fw.metrics.durableLSN.Load(); got != int64(m.FeedLSN) {
					t.Fatalf("save %d: jcf_durable_lsn = %d, manifest FeedLSN %d", i+1, got, m.FeedLSN)
				}
				kind := saveKind(m)
				kinds[kind]++
				if kind == "full" && i > 0 {
					kind = "budget-full"
				}
				total[kind]++
				assertLoadsEqual(t, w.fw, seg)
			}
			mt := &w.fw.metrics
			if mt.checkpointFull.Load() != kinds["full"] || mt.checkpointOverlay.Load() != kinds["overlay"] {
				t.Fatalf("checkpoint counters: %d full, %d overlay; epochs committed: %v",
					mt.checkpointFull.Load(), mt.checkpointOverlay.Load(), kinds)
			}
		})
	}
	for _, kind := range []string{"full", "delta", "overlay", "budget-full"} {
		if total[kind] == 0 {
			t.Errorf("no %s epoch in %d seeds: %v", kind, seeds, total)
		}
	}
	t.Logf("epochs committed: %v", total)
}

// copyingBackend copies the state directory before each Put and Delete
// it forwards: every copy is the disk a crash just before that
// operation leaves behind.
type copyingBackend struct {
	backend.Backend
	t      *testing.T
	dir    string
	copies []string
}

func (c *copyingBackend) Put(name string, payload []byte) error {
	c.copyState()
	return c.Backend.Put(name, payload)
}

func (c *copyingBackend) Delete(name string) error {
	c.copyState()
	return c.Backend.Delete(name)
}

func (c *copyingBackend) copyState() {
	c.t.Helper()
	dst := c.t.TempDir()
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		c.t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(c.dir, e.Name()))
		if err != nil {
			c.t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			c.t.Fatal(err)
		}
	}
	c.copies = append(c.copies, dst)
}

// savedState is what one committed epoch must load back to.
type savedState struct {
	enc []byte
	lsn uint64
}

// TestCheckpointCrashStates runs full → deltas → overlay → deltas → full
// through a backend that copies the state directory before each Put and
// Delete. Every copy must load to the previous committed epoch or to
// the one being saved, byte-equal to what was saved (a copy taken
// before the first commit holds no CURRENT at all).
func TestCheckpointCrashStates(t *testing.T) {
	w := newModelWorld(t, 7, 60)
	w.fw.maxDeltaChain = 2
	dir := t.TempDir()
	seg, err := backend.OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	cb := &copyingBackend{Backend: seg, t: t, dir: dir}
	want := []string{"full", "delta", "delta", "overlay", "delta", "delta", "full"}
	var prev *savedState
	states := 0
	for i, kind := range want {
		if i == len(want)-1 {
			w.touchAll(t)
		} else {
			// A create always publishes, so every save has a delta.
			w.create(t)
			w.step(t)
			w.step(t)
		}
		cb.copies = nil
		if err := w.fw.SaveTo(cb); err != nil {
			t.Fatal(err)
		}
		m, err := backend.LoadManifest(seg)
		if err != nil {
			t.Fatal(err)
		}
		if got := saveKind(m); got != kind {
			t.Fatalf("save %d committed a %s epoch, want %s", i+1, got, kind)
		}
		now := &savedState{enc: w.fw.store.Snapshot().Encode(), lsn: w.fw.FeedLSN()}
		for j, c := range cb.copies {
			states++
			got, err := loadState(c)
			switch {
			case errors.Is(err, backend.ErrNotFound) && prev == nil:
			case err != nil:
				t.Fatalf("save %d, crash before op %d: %v", i+1, j+1, err)
			case (prev == nil || !got.equal(prev)) && !got.equal(now):
				t.Fatalf("save %d, crash before op %d: loads neither epoch %d nor %d", i+1, j+1, m.Epoch-1, m.Epoch)
			}
		}
		prev = now
	}
	t.Logf("%d crash states over %d saves", states, len(want))
}

func loadState(dir string) (*savedState, error) {
	seg, err := backend.OpenSegment(dir)
	if err != nil {
		return nil, err
	}
	fw, err := LoadFrom(seg)
	if err != nil {
		return nil, err
	}
	return &savedState{enc: fw.store.Snapshot().Encode(), lsn: fw.FeedLSN()}, nil
}

func (s *savedState) equal(o *savedState) bool {
	return s.lsn == o.lsn && bytes.Equal(s.enc, o.enc)
}

// TestReadChainRefusesStrippedOverlay: a manifest with its overlay
// fields removed — what a reader that predates overlays sees — fails
// ReadChain, whether or not deltas follow the overlay, instead of
// loading the base without the changes the overlay carries.
func TestReadChainRefusesStrippedOverlay(t *testing.T) {
	for _, deltas := range []int{0, 2} {
		t.Run(fmt.Sprintf("%d-deltas", deltas), func(t *testing.T) {
			w := newModelWorld(t, 11, 20)
			w.fw.maxDeltaChain = 2
			seg, err := backend.OpenSegment(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			// Epochs: 1 full, 2 and 3 deltas, 4 an overlay, then deltas.
			for i := 0; i < 4+deltas; i++ {
				w.step(t)
				w.step(t)
				if err := w.fw.SaveTo(seg); err != nil {
					t.Fatal(err)
				}
			}
			m, err := backend.LoadManifest(seg)
			if err != nil {
				t.Fatal(err)
			}
			if m.Overlay == "" || len(m.Deltas) != deltas {
				t.Fatalf("test premise broken: overlay %q with %d deltas", m.Overlay, len(m.Deltas))
			}
			if _, err := backend.ReadChain(seg); err != nil {
				t.Fatal(err)
			}
			m.Overlay, m.OverlaySum, m.OverlayLSN = "", "", 0
			if err := backend.PutManifest(seg, m); err != nil {
				t.Fatal(err)
			}
			if _, err := backend.ReadChain(seg); err == nil {
				t.Fatal("ReadChain accepted a chain with its overlay stripped")
			}
		})
	}
}
