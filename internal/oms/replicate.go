package oms

import (
	"fmt"

	"repro/internal/obs"
)

// Follower-store surface: the two operations a replication layer needs to
// keep a second Store converged with a primary by consuming the primary's
// change feed (see internal/repl).
//
//   - ResetFromSnapshot installs a full base snapshot and rebases the
//     follower's own feed to the snapshot's LSN — the bootstrap step.
//   - ApplyReplicated applies a contiguous feed suffix and republishes it
//     into the follower's feed at the SAME LSNs — the catch-up/tail step.
//
// Because the follower's feed mirrors the primary's commit sequence, the
// follower is itself a full citizen: its FeedLSN is the replication
// position, local Watch consumers (tool notifiers, coupling sync, chained
// replicas) see the replicated history in commit order, differential
// saves anchor correctly, and a promoted follower continues the LSN
// sequence instead of restarting it.
//
// The pair is also the only way a store is restored from disk: jcf's
// LoadFrom installs the committed base (folded with its overlay by
// MergeCheckpoint) and applies the delta chain through it, so a loaded
// store's feed continues at the saved LSN.

// ResetFromSnapshot atomically replaces the store's entire content with a
// base snapshot payload cut at feed position lsn: the bytes
// Snapshot.Encode or MergeCheckpoint produced, or a legacy JSON base
// (see DecodeSnapshot).
// The swap happens with every stripe write-locked, so concurrent readers
// observe either the old state or the new one, never a mixture; the
// decode runs before any lock is taken.
// The store's feed is rebased to lsn: subscriptions whose cursor no
// longer attaches close with Lagged() true and resynchronize.
func (st *Store) ResetFromSnapshot(data []byte, lsn uint64) error {
	tmp, err := DecodeSnapshot(data, st.schema)
	if err != nil {
		return fmt.Errorf("oms: reset from snapshot: %w", err)
	}
	nonEmpty := tmp.Count("") > 0
	st.lockAll()
	for i := range st.stripes {
		st.stripes[i].objects = tmp.stripes[i].objects
		st.stripes[i].byClass = tmp.stripes[i].byClass
		st.stripes[i].relFrom = tmp.stripes[i].relFrom
	}
	st.allocMu.Lock()
	st.nextOID = tmp.nextOID
	st.allocMu.Unlock()
	st.feed.rebase(lsn, nonEmpty)
	st.unlockAll()
	return nil
}

// ReplaysFromZero reports whether the feed from LSN 0 rebuilds this
// store from the empty store, which is what a follower at LSN 0 holds.
// It is false only while the store's base is a non-empty snapshot
// installed at LSN 0 — a state directory saved before LSNs survived a
// restart can hold one — and then a follower at 0 must bootstrap
// instead of resuming from the feed.
func (st *Store) ReplaysFromZero() bool { return !st.feed.seededAtZero.Load() }

// ApplyReplicated applies a decoded change suffix (whole commit groups,
// as a primary's feed delivered them) and republishes the records into
// this store's feed at their original LSNs. The records must attach
// exactly at this store's committed watermark (FeedLSN()+1) and be
// contiguous; otherwise ErrFeedGap is returned before anything is
// applied and the caller resynchronizes.
//
// The whole suffix applies under every stripe's write lock, so no reader
// ever observes a torn group. A schema-validation failure mid-apply
// (possible only when the stream disagrees with the store state — a
// corrupt or misdirected stream) leaves the store partially mutated and
// is returned as a non-gap error: the caller must treat the store as
// poisoned and re-bootstrap via ResetFromSnapshot.
func (st *Store) ApplyReplicated(recs []Change) error {
	if len(recs) == 0 {
		return nil
	}
	defer st.metrics.applyReplicated.Since(obs.Now())
	st.lockAll()
	defer st.unlockAll()
	at := st.feed.lsn()
	if recs[0].LSN != at+1 {
		return fmt.Errorf("%w: records start at %d, store is at %d", ErrFeedGap, recs[0].LSN, at)
	}
	for i := range recs {
		if recs[i].LSN != recs[0].LSN+uint64(i) {
			return fmt.Errorf("%w: record %d follows %d", ErrFeedGap, recs[i].LSN, recs[0].LSN+uint64(i)-1)
		}
	}
	for _, c := range recs {
		if err := st.replayOneLocked(c); err != nil {
			return fmt.Errorf("oms: apply replicated lsn %d: %w", c.LSN, err)
		}
	}
	return st.feed.publishAt(recs)
}
