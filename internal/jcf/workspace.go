package jcf

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/oms"
	"repro/internal/oms/blobstore"
)

// The workspace concept (section 2.1): "the workspace concept of JCF
// allows only one user to work on a particular cell version if this cell
// version is reserved in his private workspace. Other users are only
// allowed to read the published parts of the design data. When the work is
// finished, the cell can be published and then be modified by other
// users." Unlike FMCAD's single .meta file, reservations are per cell
// version, so designers working on disjoint cells never conflict —
// the section 3.1 result.

// Reserve places a cell version into the user's private workspace. The
// user must be a member of the team attached to the cell version, and no
// other user may hold the reservation.
func (fw *Framework) Reserve(user string, cv oms.OID) error {
	if err := fw.guardWrite(); err != nil {
		return err
	}
	userOID, err := fw.User(user)
	if err != nil {
		return err
	}
	team, err := fw.AttachedTeam(cv)
	if err != nil {
		return err
	}
	if !fw.IsMember(team, userOID) {
		return fmt.Errorf("%w (user %s)", ErrNotMember, user)
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if holder, held := fw.ReservedBy(cv); held {
		fw.statReserveConflicts.Inc()
		if holder == user {
			return fmt.Errorf("%w (already in your workspace)", ErrReserved)
		}
		return fmt.Errorf("%w (held by %s, wanted by %s)", ErrReserved, holder, user)
	}
	// The reservedBy attribute is the reservation: the Set rides the
	// change feed, which is how tools learn about workspace traffic (the
	// feed-driven notification bridge), how a replica answers ReservedBy
	// and how a saved state dir restores it.
	return fw.setReservedBy(cv, user)
}

// setReservedBy commits cv's reservedBy attribute as a one-op batch
// (on the stack, like link's); "" releases the reservation. The caller
// holds fw.mu.
func (fw *Framework) setReservedBy(cv oms.OID, user string) error {
	var b oms.Batch
	b.Set(cv, "reservedBy", oms.S(user))
	_, err := fw.store.Apply(&b)
	return err
}

// ReleaseReservation drops the user's reservation without publishing.
func (fw *Framework) ReleaseReservation(user string, cv oms.OID) error {
	if err := fw.guardWrite(); err != nil {
		return err
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if err := fw.requireReservation(user, cv); err != nil {
		return err
	}
	return fw.setReservedBy(cv, "")
}

// Publish marks the cell version's design data as published and releases
// the reservation, making the data readable (and the version reservable)
// by other team members.
func (fw *Framework) Publish(user string, cv oms.OID) error {
	if err := fw.guardWrite(); err != nil {
		return err
	}
	// Durability gate (ISSUE 9): published data must be readable by the
	// whole team, so every async blob upload for this cell version has to
	// be durable first. Wait outside fw.mu (Wait would park holding it),
	// then re-check under the lock — a checkin that raced in between
	// registers its upload before fw.mu.RLock, so the re-check sees it.
	gateWait := obs.Now()
	for {
		if err := fw.waitUploads(cv); err != nil {
			return fmt.Errorf("jcf: publish %d: %w", cv, err)
		}
		fw.mu.Lock()
		if fw.uploadsIdle(cv) {
			break
		}
		fw.mu.Unlock()
	}
	fw.metrics.publishGate.Since(gateWait)
	// On a framework loaded from disk the ledger is empty; the refs
	// themselves are the record. Presence in the CAS is the publishable
	// bar (EnableBlobStore already digest-verified everything published).
	// Every ref under the cell version is checked on every Publish; the
	// walk probes each version's data without copying inline bytes, so
	// its cost is one store read per version and one Has per ref.
	if fw.blobs != nil {
		if err := fw.forEachCVDataRef(cv, func(dov oms.OID, r blobstore.Ref) error {
			if !fw.blobs.Has(r) {
				return fmt.Errorf("jcf: publish %d: version %d references missing %s", cv, dov, r)
			}
			return nil
		}); err != nil {
			fw.mu.Unlock()
			return err
		}
	}
	// Check, publish and release under one write lock: a check-then-act
	// window here could evict a reservation another user acquired in
	// between. fw.mu may be held across store calls (the store never
	// calls back into the framework, so the lock order fw.mu -> stripe
	// is acyclic).
	defer fw.mu.Unlock()
	if err := fw.requireReservation(user, cv); err != nil {
		return err
	}
	// Publish and reservation release commit as ONE batch — one feed
	// group — so no feed consumer ever observes a published version whose
	// reservation still looks held (or vice versa).
	b := fw.getBatch()
	defer fw.putBatch(b)
	b.Set(cv, "published", oms.B(true))
	b.Set(cv, "reservedBy", oms.S(""))
	_, err := fw.store.Apply(b)
	return err
}

// ReservedBy returns the user holding the workspace reservation on a cell
// version, and whether it is held at all, from the cell version's
// reservedBy attribute — the same answer on a primary, a replica view
// and a reloaded state dir.
func (fw *Framework) ReservedBy(cv oms.OID) (string, bool) {
	u := fw.store.GetString(cv, "reservedBy")
	return u, u != ""
}

// Published reports whether a cell version has been published.
func (fw *Framework) Published(cv oms.OID) bool {
	return fw.store.GetBool(cv, "published")
}

// CanRead reports whether user may read the design data of a cell version:
// either they hold the reservation or the version is published.
func (fw *Framework) CanRead(user string, cv oms.OID) bool {
	if holder, held := fw.ReservedBy(cv); held && holder == user {
		return true
	}
	return fw.Published(cv)
}

// CanWrite reports whether user may modify the design data of a cell
// version: only the reservation holder may.
func (fw *Framework) CanWrite(user string, cv oms.OID) bool {
	holder, held := fw.ReservedBy(cv)
	return held && holder == user
}

// requireReservation is the write guard used by CheckInData, the
// activity API, ReleaseReservation and Publish. It reads the store only,
// so callers may hold fw.mu: CheckInData re-checks under fw.mu held for
// reading until its batch has committed, so a concurrent Publish or
// ReleaseReservation — both need fw.mu for writing — cannot drop the
// reservation between the check and the blob landing.
func (fw *Framework) requireReservation(user string, cv oms.OID) error {
	if !fw.CanWrite(user, cv) {
		return fmt.Errorf("%w (user %s)", ErrNotReserved, user)
	}
	return nil
}
