// Package oms (fixture) seeds lockorder violations: the analyzer must
// flag indexed stripe acquisition (a sorted pair outside the helpers
// included), in-loop acquisition, and hand-ordered multi-stripe holds,
// while accepting the sorted helpers and the single-stripe path.
package oms

import "sync"

type stripe struct {
	mu sync.RWMutex
}

// Store mirrors the kernel's striped layout.
type Store struct {
	stripes [4]stripe
}

// lockPair sorts its two indexes, but it is not a sorted helper: only
// ascending loops and Apply's stripe set take more than one stripe.
func (st *Store) lockPair(i, j int) {
	if j < i {
		i, j = j, i
	}
	st.stripes[i].mu.Lock() // want lockorder "indexing the stripe array"
	if i != j {
		st.stripes[j].mu.Lock() // want lockorder "indexing the stripe array"
	}
}

// lockAll is on the allowlist: the ascending loop is the sanctioned
// whole-store acquisition.
func (st *Store) lockAll() {
	for i := range st.stripes {
		st.stripes[i].mu.Lock()
	}
}

// singleOp takes exactly one stripe lock directly — the sanctioned
// single-object path; must NOT be flagged.
func (st *Store) singleOp(s *stripe) {
	s.mu.Lock()
	defer s.mu.Unlock()
}

// badIndexed acquires by raw-indexing the stripe array outside the
// sorted helpers.
func (st *Store) badIndexed(i int) {
	st.stripes[i].mu.Lock() // want lockorder "indexing the stripe array"
	st.stripes[i].mu.Unlock()
}

// badLoop acquires stripe locks inside a loop — a multi-acquisition.
func (st *Store) badLoop(ss []*stripe) {
	for _, s := range ss {
		s.mu.RLock() // want lockorder "inside a loop"
		s.mu.RUnlock()
	}
}

// badPair hand-orders two stripes: the second acquisition while the
// first is held cannot be proven ordered.
func (st *Store) badPair(a, b *stripe) {
	a.mu.Lock()
	b.mu.Lock() // want lockorder "second stripe lock"
	b.mu.Unlock()
	a.mu.Unlock()
}

// reacquireSame re-locks the SAME stripe root sequentially after
// releasing — one lock live at a time; must NOT be flagged.
func (st *Store) reacquireSame(s *stripe) {
	s.mu.Lock()
	s.mu.Unlock()
	s.mu.RLock()
	s.mu.RUnlock()
}
