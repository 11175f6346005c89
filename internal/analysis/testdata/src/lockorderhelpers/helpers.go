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
// Its two-stripe fast path sorts the pair with a swap guard, but a
// second stripe taken outside an ascending loop is reported all the
// same.
func (st *Store) Apply(mask, i, j int) {
	if mask == 0 {
		if i > j {
			i, j = j, i
		}
		st.stripes[i].mu.Lock()
		st.stripes[j].mu.Lock() // want lockorder "stripe j locked while stripe i is held"
		return
	}
	for k := 0; k < numStripes; k++ {
		if mask&(1<<k) != 0 {
			st.stripes[k].mu.Lock()
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

// rlockAll ranges over a slice of indexes: the loop's key is not the
// stripe index, so nothing shows that the order is ascending.
func (st *Store) rlockAll(order []int) {
	for _, i := range order {
		st.stripes[i].mu.RLock() // want lockorder "does not count its stripe index up"
	}
}
