// Package oms (fixture) seeds sorted helpers that are not sorted: the
// allowlist admits them by name, so lockorder must check that each one
// really acquires its stripes in ascending index order.
package oms

import "sync"

type stripe struct {
	mu sync.RWMutex
}

// Store mirrors the kernel's striped layout.
type Store struct {
	stripes [4]stripe
}

const numStripes = 4

// lockAll counts down: two of them running against an ascending
// acquirer deadlock.
func (st *Store) lockAll() {
	for i := len(st.stripes) - 1; i >= 0; i-- {
		st.stripes[i].mu.Lock() // want lockorder "does not count its stripe index up"
	}
}

// unlockAll releases in descending order, which is fine.
func (st *Store) unlockAll() {
	for i := len(st.stripes) - 1; i >= 0; i-- {
		st.stripes[i].mu.Unlock()
	}
}

// Apply takes a stripe set in ascending order through a counted loop.
func (st *Store) Apply(mask int) {
	for i := 0; i < numStripes; i++ {
		if mask&(1<<i) != 0 {
			st.stripes[i].mu.Lock()
		}
	}
}

// forEachStripeRLocked counts up over a stripe it names through a local.
func (st *Store) forEachStripeRLocked(fn func(s *stripe)) {
	for i := range st.stripes {
		s := &st.stripes[i]
		s.mu.RLock()
		fn(s)
		s.mu.RUnlock()
	}
}

// lockPair sorts its indexes but then takes the higher one first.
func (st *Store) lockPair(i, j int) func() {
	if i == j {
		s := &st.stripes[i]
		s.mu.Lock()
		return s.mu.Unlock
	}
	if i > j {
		i, j = j, i
	}
	si, sj := &st.stripes[i], &st.stripes[j]
	sj.mu.Lock()
	si.mu.Lock() // want lockorder "stripe i locked while stripe j is held"
	return func() { si.mu.Unlock(); sj.mu.Unlock() }
}

// rlockAll ranges over a slice of indexes: the loop's key is not the
// stripe index, so nothing shows that the order is ascending.
func (st *Store) rlockAll(order []int) {
	for _, i := range order {
		st.stripes[i].mu.RLock() // want lockorder "does not count its stripe index up"
	}
}
