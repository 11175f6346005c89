package fmcad

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
// publishes nothing; and the .meta on disk is always json.Marshal of the
// current root.
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
	tmp := filepath.Join(l.Dir(), MetaFileName+".tmp")

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
	// A directory where the rewrite's temp file belongs makes the .meta
	// write of one other op fail.
	ops = append(ops, func() error {
		if err := os.Mkdir(tmp, 0o755); err != nil {
			return err
		}
		err := ops[rng.Intn(len(ops)-1)]()
		if err != nil && strings.Contains(err.Error(), "flush meta") {
			seen["write failure"]++
		}
		return errors.Join(err, os.Remove(tmp))
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
		disk, err := os.ReadFile(filepath.Join(l.Dir(), MetaFileName))
		if err != nil {
			t.Fatal(err)
		}
		if want := marshal(l.meta); !bytes.Equal(disk, want) {
			t.Fatalf("after op %d (#%d), .meta differs from the root:\n got %s\nwant %s", i, op, disk, want)
		}
	}
	for _, kind := range []string{"property not found", "config cycle", "locked", "write failure"} {
		if seen[kind] == 0 {
			t.Errorf("the sequence never produced a %s", kind)
		}
	}
	if len(roots) < 50 {
		t.Errorf("only %d roots published", len(roots))
	}
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
				new(metaEncoder).encode(s.snap) // reads every record
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

	disk, err := os.ReadFile(filepath.Join(l.Dir(), MetaFileName))
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(l.meta); !bytes.Equal(disk, want) {
		t.Fatalf(".meta differs from the root:\n got %s\nwant %s", disk, want)
	}
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

// BenchmarkSetProperty times one .meta-rewriting mutation as the library
// grows: with the per-cell encode cache only the changed cell is encoded,
// the rest of the file is copied.
func BenchmarkSetProperty(b *testing.B) {
	for _, cells := range []int{16, 512} {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			l, err := Create(filepath.Join(b.TempDir(), "lib"), "bench")
			if err != nil {
				b.Fatal(err)
			}
			if err := l.DefineView("schematic", "schematic"); err != nil {
				b.Fatal(err)
			}
			names := make([]string, cells)
			for i := range names {
				names[i] = fmt.Sprintf("cell%04d", i)
				if err := l.CreateCell(names[i]); err != nil {
					b.Fatal(err)
				}
				if err := l.CreateCellview(names[i], "schematic"); err != nil {
					b.Fatal(err)
				}
				if err := l.SetProperty(names[i], "schematic", 1, "jcf_version", strconv.Itoa(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.SetProperty(names[i%cells], "schematic", 1, "tag", strconv.Itoa(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
