package repl

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/jcf"
	"repro/internal/oms"
	"repro/internal/oms/backend"
)

// restoredCase builds a committed state directory and returns the
// backend holding it.
type restoredCase struct {
	name  string
	build func(t *testing.T) backend.Backend
}

// smallFramework is a primary with a team, a project and a cell.
func smallFramework(t *testing.T) *jcf.Framework {
	t.Helper()
	fw, err := jcf.New(jcf.Release40)
	if err != nil {
		t.Fatal(err)
	}
	team, err := fw.CreateTeam("t1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := fw.CreateProject("p1", team)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.CreateCell(p, "alu"); err != nil {
		t.Fatal(err)
	}
	return fw
}

// copyStateDir copies the state directory src into a fresh temporary
// directory and returns it.
func copyStateDir(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// dirFiles returns every file of dir and its bytes.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

func restoredCases() []restoredCase {
	return []restoredCase{
		{"file-full-save", func(t *testing.T) backend.Backend {
			dir := t.TempDir()
			if err := smallFramework(t).Save(dir); err != nil {
				t.Fatal(err)
			}
			b, err := backend.OpenFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"segment-differential-save", func(t *testing.T) backend.Backend {
			dir := t.TempDir()
			seg, err := backend.OpenSegment(dir)
			if err != nil {
				t.Fatal(err)
			}
			fw := smallFramework(t)
			for i := 0; i < 3; i++ {
				if i > 0 {
					if _, err := fw.CreateTeam(fmt.Sprintf("delta-%d", i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := fw.SaveTo(seg); err != nil {
					t.Fatal(err)
				}
			}
			m, err := backend.LoadManifest(seg)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Deltas) < 2 {
				t.Fatalf("manifest holds %d deltas, want 2 or more", len(m.Deltas))
			}
			return seg
		}},
		{"segment-overlay-save", func(t *testing.T) backend.Backend {
			// A full base, a chain of deltas up to the compaction bound,
			// an overlay that empties it, and two deltas after that.
			seg, err := backend.OpenSegment(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			fw := smallFramework(t)
			for i := 0; ; i++ {
				if i > 0 {
					if _, err := fw.CreateTeam(fmt.Sprintf("save-%d", i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := fw.SaveTo(seg); err != nil {
					t.Fatal(err)
				}
				m, err := backend.LoadManifest(seg)
				if err != nil {
					t.Fatal(err)
				}
				if m.Overlay != "" && len(m.Deltas) == 2 {
					return seg
				}
				if i > 200 {
					t.Fatalf("no overlay after %d saves: %+v", i, m)
				}
			}
		}},
		{"segment-v1-fixture", func(t *testing.T) backend.Backend {
			seg, err := backend.OpenSegment(copyStateDir(t, filepath.Join("..", "jcf", "testdata", "segment-v1")))
			if err != nil {
				t.Fatal(err)
			}
			return seg
		}},
	}
}

// TestRestoredPrimaryServesFreshReplica: a primary restored by
// jcf.LoadFrom and served with its state backend as the seed (what
// `replicad serve -state` does) brings a fresh replica up in one
// session, and the replica then follows further writes to the same
// state.
func TestRestoredPrimaryServesFreshReplica(t *testing.T) {
	for _, tc := range restoredCases() {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.build(t)
			fw, err := jcf.LoadFrom(b)
			if err != nil {
				t.Fatal(err)
			}
			primary := fw.ReplicationSource()
			if primary.Count("") == 0 {
				t.Fatal("test premise broken: the restored primary is empty")
			}
			p, d := startPipePublisher(t, primary, WithSeedBackend(b))
			rep := NewReplica(primary.Schema(), d, WithReconnectBackoff(time.Millisecond))
			rep.Start()
			defer rep.Close()

			want := fingerprint(t, primary)
			deadline := time.Now().Add(5 * time.Second)
			for fingerprint(t, rep.Store()) != want || rep.AppliedLSN() != primary.FeedLSN() {
				if time.Now().After(deadline) {
					t.Fatalf("fresh replica did not converge: %d of %d objects, applied %d, primary at %d, err %v",
						rep.Store().Count(""), primary.Count(""), rep.AppliedLSN(), primary.FeedLSN(), rep.Err())
				}
				time.Sleep(time.Millisecond)
			}
			assertOneSession(t, rep)

			for i := 0; i < 8; i++ {
				if _, err := fw.CreateTeam(fmt.Sprintf("after-load-%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			waitConverged(t, rep, primary, 5*time.Second)
			if got, want := fingerprint(t, rep.Store()), fingerprint(t, primary); got != want {
				t.Fatalf("replica diverged after writes to the restored primary:\n got %s\nwant %s", got, want)
			}
			assertOneSession(t, rep)
			if got := p.Stats().ChainBootstraps; got != 1 {
				t.Fatalf("chain bootstraps = %d, want 1", got)
			}
		})
	}
}

// assertOneSession fails unless the replica is still in its first
// session with no error.
func assertOneSession(t *testing.T, rep *Replica) {
	t.Helper()
	if n, err := rep.Stats().Reconnects, rep.Err(); n != 0 || err != nil {
		t.Fatalf("replica reconnected %d times, last error %v", n, err)
	}
}

// TestChainBootstrapRefusesBrokenChain: the publisher ships a committed
// chain only if jcf.LoadFrom would load it. A chain whose second delta
// skips an LSN, one with a corrupt delta, one that ends before the
// manifest's FeedLSN and one whose overlay fails its checksum are
// refused by backend.ReadChain, and the
// publisher bootstraps a fresh replica from a live snapshot instead.
func TestChainBootstrapRefusesBrokenChain(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(m *backend.Manifest, seed backend.Backend, deltas [][]oms.Change)
	}{
		{"second-delta-skips-an-lsn", func(m *backend.Manifest, seed backend.Backend, deltas [][]oms.Change) {
			// Drop the second delta's first record (a single-op group),
			// so the committed history really has a hole.
			putDelta(t, seed, &m.Deltas[1], deltas[1][1:])
			m.Deltas[1].FromLSN++
		}},
		{"corrupt-delta", func(m *backend.Manifest, seed backend.Backend, deltas [][]oms.Change) {
			m.Deltas[1].Sum = m.Deltas[0].Sum
		}},
		{"chain-ends-before-feed-lsn", func(m *backend.Manifest, seed backend.Backend, deltas [][]oms.Change) {
			m.Deltas = m.Deltas[:1]
		}},
		{"bad-overlay-sum", func(m *backend.Manifest, seed backend.Backend, deltas [][]oms.Change) {
			// Fold the first delta into an overlay over the base, then
			// commit it with a checksum that does not match.
			base, err := seed.Get(m.OMS)
			if err != nil {
				t.Fatal(err)
			}
			st := oms.NewStore(testSchema(t))
			if err := st.ResetFromSnapshot(base, m.BaseLSN); err != nil {
				t.Fatal(err)
			}
			if err := st.ApplyReplicated(deltas[0]); err != nil {
				t.Fatal(err)
			}
			ov, ok := st.Overlay(m.BaseLSN)
			if !ok {
				t.Fatal("overlay since the base's cut not available")
			}
			payload := ov.Encode()
			if err := seed.Put("oms@3", payload); err != nil {
				t.Fatal(err)
			}
			m.Overlay, m.OverlaySum, m.OverlayLSN = "oms@3", backend.SHA256Hex(payload), ov.LSN()
			m.Deltas = m.Deltas[1:]
			if err := backend.PutManifest(seed, *m); err != nil {
				t.Fatal(err)
			}
			if _, err := backend.ReadChain(seed); err != nil {
				t.Fatalf("test premise broken: the overlay chain with its real sum: %v", err)
			}
			m.OverlaySum = m.OMSSum
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			primary, seed, m, deltas := committedChain(t)
			tc.corrupt(&m, seed, deltas)
			if err := backend.PutManifest(seed, m); err != nil {
				t.Fatal(err)
			}
			if _, err := backend.ReadChain(seed); err == nil {
				t.Fatal("ReadChain accepted the broken chain")
			}
			p, d := startPipePublisher(t, primary, WithSeedBackend(seed))
			rep := NewReplica(testSchema(t), d, WithReconnectBackoff(time.Millisecond))
			rep.Start()
			defer rep.Close()
			waitConverged(t, rep, primary, 5*time.Second)
			if got, want := fingerprint(t, rep.Store()), fingerprint(t, primary); got != want {
				t.Fatalf("replica diverged:\n got %s\nwant %s", got, want)
			}
			assertOneSession(t, rep)
			if s := p.Stats(); s.ChainBootstraps != 0 || s.SnapshotBootstraps != 1 {
				t.Fatalf("chain bootstraps %d, snapshot bootstraps %d, want 0 and 1", s.ChainBootstraps, s.SnapshotBootstraps)
			}
		})
	}
}

// TestChainBootstrapFallsBackFromOldFormat: a committed chain whose base
// or delta is in an older format (the JSON of an older state dir) reads
// through backend.ReadChain, but the replica's decoders would refuse it
// with backend.ErrOldFormat on every reconnect. The publisher checks each
// payload's format and bootstraps the replica from a live snapshot
// instead, as for a broken chain: the replica converges in one session,
// and the seed's files stay as they were.
func TestChainBootstrapFallsBackFromOldFormat(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload func(m *backend.Manifest) (name string, sum *string, payload []byte)
	}{
		{"json-base", func(m *backend.Manifest) (string, *string, []byte) {
			return m.OMS, &m.OMSSum, []byte(`{"next_oid":2,"objects":[{"oid":1,"class":"Cell","attrs":{"name":{"kind":0,"str":"alu"}}}],"links":[]}`)
		}},
		{"json-delta", func(m *backend.Manifest) (string, *string, []byte) {
			d := &m.Deltas[0]
			return d.Name, &d.Sum, []byte(fmt.Sprintf(`[{"lsn":%d,"group":%[1]d,"kind":1,"oid":1,"class":"Cell","attr":"rev","value":{"kind":1,"int":7}}]`, d.FromLSN+1))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			primary, seed, m, _ := committedChain(t)
			name, sum, payload := tc.payload(&m)
			if err := seed.Put(name, payload); err != nil {
				t.Fatal(err)
			}
			*sum = backend.SHA256Hex(payload)
			if err := backend.PutManifest(seed, m); err != nil {
				t.Fatal(err)
			}
			if _, err := backend.ReadChain(seed); err != nil {
				t.Fatalf("test premise broken: the chain does not read: %v", err)
			}
			dir := seed.(interface{ Dir() string }).Dir()
			before := dirFiles(t, dir)
			p, d := startPipePublisher(t, primary, WithSeedBackend(seed))
			rep := NewReplica(testSchema(t), d, WithReconnectBackoff(time.Millisecond))
			rep.Start()
			defer rep.Close()
			waitConverged(t, rep, primary, 5*time.Second)
			if got, want := fingerprint(t, rep.Store()), fingerprint(t, primary); got != want {
				t.Fatalf("replica diverged:\n got %s\nwant %s", got, want)
			}
			assertOneSession(t, rep)
			if s := p.Stats(); s.ChainBootstraps != 0 || s.SnapshotBootstraps != 1 {
				t.Fatalf("chain bootstraps %d, snapshot bootstraps %d, want 0 and 1", s.ChainBootstraps, s.SnapshotBootstraps)
			}
			if !maps.Equal(dirFiles(t, dir), before) {
				t.Fatal("the refused bootstrap changed the seed's state dir")
			}
		})
	}
}

// committedChain commits a base and two deltas of a store's history to
// a fresh backend the way differential saves do, and restores a primary
// from them the way jcf.LoadFrom does, so its feed no longer holds LSN 0
// and a fresh replica needs a bootstrap. It returns the deltas' records.
func committedChain(t *testing.T) (*oms.Store, backend.Backend, backend.Manifest, [][]oms.Change) {
	t.Helper()
	st := oms.NewStore(testSchema(t))
	cell, err := createOne(st, "Cell", map[string]oms.Value{"name": oms.S("alu")})
	if err != nil {
		t.Fatal(err)
	}
	seed, err := backend.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := st.Snapshot().Encode()
	fwPayload, err := json.Marshal(map[string]int{"release": 40})
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{"oms@1": base, "framework@1": fwPayload} {
		if err := seed.Put(name, payload); err != nil {
			t.Fatal(err)
		}
	}
	m := backend.Manifest{
		Epoch: 1, OMS: "oms@1", Framework: "framework@1",
		OMSSum:       backend.SHA256Hex(base),
		FrameworkSum: backend.SHA256Hex(fwPayload),
		BaseEpoch:    1, BaseLSN: st.FeedLSN(), FeedLSN: st.FeedLSN(),
	}
	var deltas [][]oms.Change
	for i := 0; i < 2; i++ {
		churn(t, st, cell, 5)
		recs, ok := st.Changes(m.FeedLSN)
		if !ok {
			t.Fatal("suffix evicted")
		}
		ref := backend.DeltaRef{Name: fmt.Sprintf("delta@%d", i+2), FromLSN: m.FeedLSN, ToLSN: recs[len(recs)-1].LSN}
		putDelta(t, seed, &ref, recs)
		m.Deltas = append(m.Deltas, ref)
		m.FeedLSN = ref.ToLSN
		deltas = append(deltas, recs)
	}
	primary := oms.NewStore(testSchema(t))
	if err := primary.ResetFromSnapshot(base, m.BaseLSN); err != nil {
		t.Fatal(err)
	}
	for _, recs := range deltas {
		if err := primary.ApplyReplicated(recs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := primary.Watch(0, 1); err == nil {
		t.Fatal("test premise broken: the restored primary's feed still holds LSN 0")
	}
	return primary, seed, m, deltas
}

// putDelta writes recs as ref's delta payload and records its sum.
func putDelta(t *testing.T, b backend.Backend, ref *backend.DeltaRef, recs []oms.Change) {
	t.Helper()
	payload := oms.EncodeChanges(recs)
	if err := b.Put(ref.Name, payload); err != nil {
		t.Fatal(err)
	}
	ref.Sum = backend.SHA256Hex(payload)
}
