// Package jcf (fixture) seeds applyatomic violations: exported
// Framework methods whose call tree performs two or more separate store
// mutations — directly, through helpers, or in a loop — instead of
// staging them in one Batch committed by a single Store.Apply.
package jcf

import "errors"

var errReadOnly = errors.New("read-only replica")

// Batch mirrors the staging API shape.
type Batch struct{ ops []int }

// Store mirrors the mutating surface the analyzer recognizes by name.
type Store struct{ n int }

func (s *Store) Apply(b *Batch) error { s.n += len(b.ops); return nil }

// Framework mirrors the desktop API shape.
type Framework struct {
	store   *Store
	replica bool
}

func (fw *Framework) guardWrite() error {
	if fw.replica {
		return errReadOnly
	}
	return nil
}

// Batched stages both mutations in one batch — clean.
func (fw *Framework) Batched(x int) error {
	if err := fw.guardWrite(); err != nil {
		return err
	}
	b := &Batch{}
	b.ops = append(b.ops, x, x)
	return fw.store.Apply(b)
}

// Sequential commits two one-op batches back to back.
func (fw *Framework) Sequential(x int) error { // want applyatomic "without one Batch"
	if err := fw.guardWrite(); err != nil {
		return err
	}
	if err := fw.store.Apply(&Batch{ops: []int{x}}); err != nil {
		return err
	}
	return fw.store.Apply(&Batch{ops: []int{x + 1}})
}

// setOne hides one mutation behind a helper.
func (fw *Framework) setOne(x int) error {
	return fw.store.Apply(&Batch{ops: []int{x}})
}

// Transitive reaches its two mutations only through helpers.
func (fw *Framework) Transitive(x int) error { // want applyatomic "without one Batch"
	if err := fw.guardWrite(); err != nil {
		return err
	}
	if err := fw.setOne(x); err != nil {
		return err
	}
	return fw.setOne(x + 1)
}

// Looped mutates once per iteration — a loop counts as two or more.
func (fw *Framework) Looped(xs []int) error { // want applyatomic "without one Batch"
	if err := fw.guardWrite(); err != nil {
		return err
	}
	for _, x := range xs {
		if err := fw.setOne(x); err != nil {
			return err
		}
	}
	return nil
}
