// Package oms (fixture) seeds feedpublish violations: LSN assignment
// (feed.publish/publishAt/rebase) from functions outside the sanctioned
// commit helpers.
package oms

type feed struct{ lsn uint64 }

func (f *feed) publish() uint64      { f.lsn++; return f.lsn }
func (f *feed) publishAt(lsn uint64) { f.lsn = lsn }
func (f *feed) rebase(lsn uint64)    { f.lsn = lsn }

// Store mirrors the kernel: a store owning its change feed.
type Store struct{ feed feed }

// Apply is the local commit path — clean.
func (st *Store) Apply() uint64 {
	return st.feed.publish()
}

// ApplyReplicated is sanctioned to publish at explicit LSNs — clean.
func (st *Store) ApplyReplicated(lsn uint64) {
	st.feed.publishAt(lsn)
}

// sneakyPublish assigns an LSN outside the allowlist.
func (st *Store) sneakyPublish() uint64 {
	return st.feed.publish() // want feedpublish "not a sanctioned commit helper"
}

// Delete commits a single op beside Apply: a second write path is not
// a commit helper.
func (st *Store) Delete() uint64 {
	return st.feed.publish() // want feedpublish "not a sanctioned commit helper"
}

// Reset rebases the feed outside the allowlist.
func (st *Store) Reset(lsn uint64) {
	st.feed.rebase(lsn) // want feedpublish "not a sanctioned commit helper"
}
