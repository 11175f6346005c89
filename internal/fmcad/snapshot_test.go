package fmcad

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Published metadata is immutable. A seeded random sequence of every
// public mutation, rejected ones included, must never change a root once
// it was published, nor a session snapshot; a rejected or failed mutation
// publishes nothing, whether its journal append fails, is torn short, or
// its checkpoint fails; and after every op a fresh Open of the directory
// loads json.Marshal-equal metadata to the current root. Checkpoints are
// made due now and then (see dueCheckpoint).
func TestPublishedMetaNeverChanges(t *testing.T) {
	l := newLib(t)
	mustCell(t, l, "c0", "schematic")
	rng := rand.New(rand.NewSource(14))
	pick := func(prefix string, n int) string { return prefix + strconv.Itoa(rng.Intn(n)) }
	views := []string{"schematic", "layout", "symbol"}
	view := func() string { return views[rng.Intn(len(views))] }

	marshal := func(m *meta) []byte {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	type published struct {
		m   *meta
		enc []byte
	}
	roots := []published{{l.meta, marshal(l.meta)}}
	sessions := map[*Session][]byte{}
	bySession := map[string]*Session{}
	workfiles := map[string]*Workfile{}
	openSession := func(user string) *Session {
		s := l.NewSession(user)
		sessions[s] = marshal(s.snap)
		bySession[user] = s
		return s
	}
	for _, u := range []string{"anna", "bert"} {
		openSession(u)
	}
	user := func() string { return []string{"anna", "bert"}[rng.Intn(2)] }

	seen := map[string]int{}
	ops := []func() error{
		func() error { return l.DefineView(pick("view", 5), "schematic") },
		func() error { return l.CreateCell(pick("c", 6)) },
		func() error { return l.CreateCellview(pick("c", 6), view()) },
		func() error {
			err := l.SetProperty(pick("c", 3), view(), rng.Intn(3), pick("p", 2), pick("x", 9))
			if errors.Is(err, ErrNotFound) {
				seen["property not found"]++
			}
			return err
		},
		func() error { return l.CreateConfig(pick("k", 4)) },
		func() error { return l.AddToConfig(pick("k", 4), pick("c", 6), view(), 1+rng.Intn(3)) },
		func() error {
			err := l.AddConfigToConfig(pick("k", 4), pick("k", 4))
			if err != nil && strings.Contains(err.Error(), "config cycle") {
				seen["config cycle"]++
			}
			return err
		},
		func() error {
			u := user()
			if workfiles[u] != nil {
				return nil
			}
			wf, err := bySession[u].Checkout(pick("c", 2), "schematic")
			if errors.Is(err, ErrLocked) {
				seen["locked"]++
			}
			if err == nil {
				workfiles[u] = wf
			}
			return err
		},
		func() error {
			u := user()
			wf := workfiles[u]
			if wf == nil {
				return nil
			}
			var err error
			if rng.Intn(3) == 0 {
				err = wf.session.Cancel(wf)
			} else {
				_, err = wf.session.Checkin(wf)
			}
			if err == nil {
				workfiles[u] = nil
			}
			return err
		},
		func() error {
			if rng.Intn(2) == 0 {
				openSession(user())
			} else {
				s := bySession[user()]
				s.Refresh()
				sessions[s] = marshal(s.snap)
			}
			return nil
		},
	}
	// Make the next commit a checkpoint, as a journal past the threshold
	// would (see dueCheckpoint).
	ops = append(ops, func() error {
		dueCheckpoint(l)
		return nil
	})
	// Make the metadata write of one other op fail: when that op's commit
	// is a checkpoint, or is made one, by a directory where its temp file
	// belongs; otherwise by a directory where the journal belongs, or by
	// an append torn short.
	ops = append(ops, func() error {
		kind, restore := "append failure", func() error { return nil }
		switch r := rng.Intn(3); {
		case l.checkpointDue() || r == 0:
			dueCheckpoint(l)
			kind, restore = "checkpoint failure", block(t, filepath.Join(l.Dir(), MetaFileName+".tmp"))
		case r == 1:
			restore = block(t, filepath.Join(l.Dir(), logFileName))
		default:
			kind = "torn append"
			l.logWrite = func(f *os.File, rec []byte) (int, error) {
				n, err := f.Write(rec[:rng.Intn(len(rec))])
				return n, errors.Join(err, io.ErrShortWrite)
			}
		}
		err := ops[rng.Intn(len(ops)-1)]()
		l.logWrite = nil
		if err != nil && strings.Contains(err.Error(), "flush meta") {
			seen[kind]++
		}
		return errors.Join(err, restore())
	})

	for i := 0; i < 400; i++ {
		before := l.meta
		op := rng.Intn(len(ops))
		if err := ops[op](); err != nil && l.meta != before {
			t.Fatalf("op %d (#%d) failed with %v but published a new root", i, op, err)
		}
		if l.meta != before {
			roots = append(roots, published{l.meta, marshal(l.meta)})
		}
		for j, r := range roots {
			if got := marshal(r.m); !bytes.Equal(got, r.enc) {
				t.Fatalf("after op %d (#%d), root %d changed:\n got %s\nwant %s", i, op, j, got, r.enc)
			}
		}
		for s, enc := range sessions {
			if got := marshal(s.snap); !bytes.Equal(got, enc) {
				t.Fatalf("after op %d (#%d), %s's snapshot changed:\n got %s\nwant %s", i, op, s.user, got, enc)
			}
		}
		requireOnDisk(t, l, fmt.Sprintf("after op %d (#%d)", i, op))
	}
	for _, kind := range []string{"property not found", "config cycle", "locked", "append failure", "torn append", "checkpoint failure"} {
		if seen[kind] == 0 {
			t.Errorf("the sequence never produced a %s", kind)
		}
	}
	if len(roots) < 50 {
		t.Errorf("only %d roots published", len(roots))
	}
}

// The same at depth: in a library of 300 cells with 100 tagged versions
// each, Cells and every Props map span interior nodes, so a checkout, a
// tagged checkin, a tag of an old version and a cell created between two
// others each copy a path of several nodes and share the rest. Every root
// published by a seeded sequence of those must encode as it did when it
// was published, while two readers encode and query the snapshots they
// hold; under the race detector a write to any node a published root
// shares is a reported race.
func TestPublishedDeepMetaNeverChanges(t *testing.T) {
	const cells, versions = 300, 100
	l := historyLib(t, cells, versions)
	if levels(l.meta.Cells) < 2 || levels(cellOf(l.meta, "cell0000").Cellviews["schematic"].Props) < 2 {
		t.Fatal("test premise broken: Cells or Props fit in one node")
	}
	type published struct {
		m   *meta
		enc []byte
	}
	roots := []published{{l.meta, appendMeta(nil, l.meta)}}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(user string) {
			defer readers.Done()
			s := l.NewSession(user)
			enc := appendMeta(nil, s.snap)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cell := fmt.Sprintf("cell%04d", i%cells)
				if _, err := s.VersionsSeen(cell, "schematic"); err != nil {
					t.Error(err)
					return
				}
				if _, ok, err := s.lib.GetProperty(cell, "schematic", 1+i%versions, "jcf_version"); err != nil || !ok {
					t.Errorf("GetProperty(%s, v%d) = %t, %v", cell, 1+i%versions, ok, err)
					return
				}
				if i%8 == 7 {
					if again := appendMeta(nil, s.snap); !bytes.Equal(again, enc) {
						t.Errorf("%s's snapshot changed while held", user)
						return
					}
					s.Refresh()
					enc = appendMeta(nil, s.snap)
				}
			}
		}("reader" + strconv.Itoa(r))
	}

	rng := rand.New(rand.NewSource(33))
	s := l.NewSession("anna")
	cell := func() string { return fmt.Sprintf("cell%04d", rng.Intn(cells)) }
	for i := 0; i < 48; i++ {
		var err error
		switch i % 4 {
		case 0:
			var wf *Workfile
			if wf, err = s.Checkout(cell(), "schematic"); err == nil {
				wf.Props = map[string]string{"jcf_version": strconv.Itoa(i)}
				_, err = s.Checkin(wf)
			}
		case 1:
			err = l.SetProperty(cell(), "schematic", 1+rng.Intn(versions), "jcf_version", strconv.Itoa(i))
		case 2:
			err = l.SetProperty(cell(), "schematic", 1+rng.Intn(versions), "owner"+strconv.Itoa(i%3), "anna")
		default:
			c := cell() + "x" + strconv.Itoa(i)
			if err = l.CreateCell(c); err == nil {
				err = l.CreateCellview(c, "schematic")
			}
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		roots = append(roots, published{l.meta, appendMeta(nil, l.meta)})
	}
	close(stop)
	readers.Wait()
	for j, r := range roots {
		if got := appendMeta(nil, r.m); !bytes.Equal(got, r.enc) {
			t.Fatalf("root %d of %d changed after later mutations", j, len(roots))
		}
	}
	requireOnDisk(t, l, "after the sequence")
}

// Sessions opening, refreshing and reading their snapshots while designers
// check out, check in, tag and configure must only ever see whole roots.
// The readers encode every record of their snapshots, so under -race this
// also proves no published record is written.
func TestSessionsReadWhileLibraryMutates(t *testing.T) {
	l := newLib(t)
	const cells = 8
	for i := 0; i < cells; i++ {
		mustCell(t, l, "c"+strconv.Itoa(i), "schematic")
	}
	if err := l.CreateConfig("top"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(user string) {
			defer readers.Done()
			s := l.NewSession(user)
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Refresh()
				appendMeta(nil, s.snap) // reads every record
				for _, cell := range s.CellsSeen() {
					versions, err := s.VersionsSeen(cell, "schematic")
					if err != nil {
						t.Error(err)
						return
					}
					def, _ := s.DefaultVersionSeen(cell, "schematic")
					for i, v := range versions {
						if v != i+1 || def != len(versions) {
							t.Errorf("%s: torn snapshot: versions %v, default %d", cell, versions, def)
							return
						}
					}
					if _, err := s.LockedSeen(cell, "schematic"); err != nil {
						t.Error(err)
						return
					}
				}
				s = l.NewSession(user)
			}
		}("reader" + strconv.Itoa(r))
	}

	var designers sync.WaitGroup
	for d := 0; d < 2; d++ {
		designers.Add(1)
		go func(user string, seed int64) {
			defer designers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				cell := "c" + strconv.Itoa(rng.Intn(cells))
				s := l.NewSession(user)
				wf, err := s.Checkout(cell, "schematic")
				if errors.Is(err, ErrLocked) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				num, err := s.Checkin(wf)
				if err == nil {
					err = l.SetProperty(cell, "schematic", num, "by", user)
				}
				if err == nil {
					err = l.SetProperty(cell, "schematic", 1, "last", user)
				}
				if err == nil {
					err = l.AddToConfig("top", cell, "schematic", num)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}("designer"+strconv.Itoa(d), int64(d))
	}
	designers.Wait()
	close(stop)
	readers.Wait()

	requireOnDisk(t, l, "after the designers")
}

// Of concurrent Creates on one directory exactly one succeeds, the others
// fail with ErrExists, the winner's library opens, and no temp file is left.
func TestConcurrentCreateOneWins(t *testing.T) {
	const creators = 8
	for trial := 0; trial < 50; trial++ {
		dir := filepath.Join(t.TempDir(), "lib")
		errs := make([]error, creators)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < creators; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				_, errs[i] = Create(dir, "lib"+strconv.Itoa(i))
			}(i)
		}
		close(start)
		wg.Wait()
		winner := -1
		for i, err := range errs {
			switch {
			case err == nil && winner >= 0:
				t.Fatalf("trial %d: creators %d and %d both created the library", trial, winner, i)
			case err == nil:
				winner = i
			case !errors.Is(err, ErrExists):
				t.Fatalf("trial %d: creator %d: %v", trial, i, err)
			}
		}
		if winner < 0 {
			t.Fatalf("trial %d: no creator won", trial)
		}
		l, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := l.Name(), "lib"+strconv.Itoa(winner); got != want {
			t.Fatalf("trial %d: library %q, winner created %q", trial, got, want)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("trial %d: directory holds %d entries, want only %s", trial, len(entries), MetaFileName)
		}
	}
}

// BenchmarkSetProperty times one mutation as the library and the tagged
// cellview's history grow: a journal append of what the tag wrote, plus a
// whole .meta checkpoint each time the journal outgrows .meta and
// checkpointFloor. Each op tags the newest version of a cell's cellview.
func BenchmarkSetProperty(b *testing.B) {
	for _, cells := range []int{16, 512} {
		for _, versions := range []int{8, 512} {
			b.Run(fmt.Sprintf("cells=%d/versions=%d", cells, versions), func(b *testing.B) {
				l := historyLib(b, cells, versions)
				names := l.Cells()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := l.SetProperty(names[i%cells], "schematic", versions, "tag", strconv.Itoa(i)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
