package jcf

import (
	"errors"
	"fmt"

	"repro/internal/oms"
)

// Read-only replica views.
//
// A replication follower (internal/repl) keeps a second OMS store
// converged with a primary framework's database. NewReplicaView wraps
// that follower store in a Framework so every read-side desktop API —
// project browsing, version history, consistency checking, CheckOutData,
// the feed→ITC notifier — works against the replica, while every
// mutating entry point is rejected with ErrReadOnlyReplica: scaling the
// read-mostly tool population across machines without ever forking the
// design history.
//
// A replica view answers everything the framework knows, because the
// database is the framework's only record: cells, versions, variants,
// design data, configurations, hierarchies (typed ones included),
// derivations, shares, registered flows and workspace reservations (the
// reservedBy attribute) are all served from the replicated store, as of
// the replica's applied LSN. Pair queries with repl.Replica.WaitFor for
// read-your-writes. Only flow enactment state — per-process session
// state — is not answered: the activity-state queries report
// ErrReadOnlyReplica.
//
// Failover: after repl.Replica.Promote detaches the follower store,
// PromoteToPrimary flips the view writable. Reservations, flows, typed
// hierarchies and shares held at the old primary are already in the
// store, so nothing is rebuilt or re-registered.

// ErrReadOnlyReplica is returned by every mutating Framework method
// invoked on a replica view.
var ErrReadOnlyReplica = errors.New("jcf: mutation rejected: framework is a read-only replica view")

// NewReplicaView wraps a replicated follower store in a read-only
// Framework of the given release. The store stays live — queries observe
// replicated history as the follower applies it.
func NewReplicaView(st *oms.Store, release Release) (*Framework, error) {
	fw, err := New(release)
	if err != nil {
		return nil, err
	}
	fw.store = st
	fw.replica.Store(true)
	return fw, nil
}

// IsReplicaView reports whether this framework is a read-only replica
// view (and has not been promoted).
func (fw *Framework) IsReplicaView() bool { return fw.replica.Load() }

// guardWrite is the gate every mutating entry point passes: replicas
// reject the mutation before any state — the store or the enactment
// cache — is touched.
func (fw *Framework) guardWrite() error {
	if fw.replica.Load() {
		return ErrReadOnlyReplica
	}
	return nil
}

// PromoteToPrimary flips a replica view writable — the failover step
// after repl.Replica.Promote has detached the underlying store. Every
// reservation, flow, typed hierarchy and share of the old primary is
// already in that store.
func (fw *Framework) PromoteToPrimary() error {
	if !fw.replica.CompareAndSwap(true, false) {
		return fmt.Errorf("jcf: promote: framework is not a replica view")
	}
	return nil
}

// ReplicationSource exposes the underlying OMS store for a replication
// publisher (repl.NewPublisher) — the one sanctioned way past the
// framework's otherwise closed interfaces, read-only by convention.
// Tools and coupling layers keep going through the desktop API.
func (fw *Framework) ReplicationSource() *oms.Store { return fw.store }
