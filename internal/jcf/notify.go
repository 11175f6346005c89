package jcf

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/itc"
	"repro/internal/obs"
	"repro/internal/oms"
)

// Feed-driven tool notification.
//
// The paper's coupling problem (section 2.4) is keeping the tools on the
// ITC bus informed about design-management events without opening JCF's
// closed interfaces. Before the change feed, each interested call site
// would have had to publish its own bus message — scattered, easy to
// miss, and invisible for state that commits through a batch. The
// notifier replaces call-site publication wholesale: it subscribes to
// the OMS change feed and translates committed low-level records into
// framework-level messages, so every path that mutates the database —
// one-op or grouped batches, even future ones — feeds tool
// notification automatically and in commit (LSN) order.
//
// Because Watch delivers whole commit groups, a notification is emitted
// only once its group committed completely: tools never hear about half
// a checkin.

// Notification topics published on the itc.Bus.
const (
	// TopicCheckin announces a committed design-data checkin. Fields:
	// dov, do (OIDs), lsn.
	TopicCheckin = "jcf.checkin"
	// TopicPublish announces a published cell version. Fields: cv, lsn.
	TopicPublish = "jcf.publish"
	// TopicReservation announces workspace reservation traffic. Fields:
	// cv, user ("" when released), action ("reserved"/"released"), lsn.
	TopicReservation = "jcf.reservation"
	// TopicVariant announces a variant derivation. Fields: variant,
	// from (the predecessor variant; absent for an original variant),
	// cv, lsn.
	TopicVariant = "jcf.variant"
)

// NotifierTool is the From name the notifier signs its messages with.
const NotifierTool = "jcf-notifier"

// Notifier is a running feed→bus bridge; Stop cancels it.
type Notifier struct {
	fw   *Framework
	bus  *itc.Bus
	sub  *oms.Subscription
	done sync.WaitGroup

	// Delivery-loss accounting (see Stats): a vetoed Publish means a bus
	// handler refused the message — the event still happened (it is
	// committed history), so the loss must be observable rather than
	// silently discarded as it was before.
	statPublished obs.Counter
	statVetoed    obs.Counter
}

// RegisterMetrics exposes the bridge's delivery counters in reg — the
// same cells Stats() reads.
func (n *Notifier) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("jcf_notify_published_total", &n.statPublished)
	reg.RegisterCounter("jcf_notify_vetoed_total", &n.statVetoed)
}

// NotifierStats reports how the feed→ITC bridge has fared.
type NotifierStats struct {
	// Published counts messages every subscribed handler accepted.
	Published int64
	// Vetoed counts messages a bus handler refused (or that failed to
	// publish): framework events tools did NOT (all) hear about. A tool
	// that needs completeness resynchronizes from the database.
	Vetoed int64
}

// Stats returns cumulative delivery counters for the bridge.
func (n *Notifier) Stats() NotifierStats {
	return NotifierStats{
		Published: n.statPublished.Load(),
		Vetoed:    n.statVetoed.Load(),
	}
}

// StartNotifier bridges the framework's change feed onto an ITC bus,
// starting with changes committed after this call. Delivery runs on its
// own goroutine in feed order; a bus handler veto cannot stop history
// (the change already committed) — it is counted in Stats as a dropped
// delivery instead. Works on primaries and on replica views alike: a
// follower store republishes the primary's commit groups into its own
// feed, so tools colocated with a replica hear the same events in the
// same commit order.
func (fw *Framework) StartNotifier(bus *itc.Bus) (*Notifier, error) {
	sub, err := fw.store.Watch(fw.store.FeedLSN(), 64)
	if err != nil {
		return nil, fmt.Errorf("jcf: notifier: %w", err)
	}
	n := &Notifier{fw: fw, bus: bus, sub: sub}
	n.done.Add(1)
	go func() {
		defer n.done.Done()
		for group := range sub.C() {
			n.notifyGroup(group)
		}
	}()
	return n, nil
}

// Stop cancels the bridge and waits for the delivery goroutine.
func (n *Notifier) Stop() {
	n.sub.Close()
	n.done.Wait()
}

// publish sends one framework-level message, folding the outcome into
// the bridge's loss accounting.
func (n *Notifier) publish(msg itc.Message) {
	if err := n.bus.Publish(msg); err != nil {
		n.statVetoed.Inc()
		return
	}
	n.statPublished.Inc()
}

// Lagged reports whether the bridge lost its subscription because it
// fell behind the feed's retention window. A lagged notifier has
// stopped; the caller restarts one (missed events are gone — tools that
// need completeness resynchronize from the database, not the bus).
func (n *Notifier) Lagged() bool { return n.sub.Lagged() }

// notifyGroup translates one committed feed group into framework-level
// bus messages.
func (n *Notifier) notifyGroup(group []oms.Change) {
	fw := n.fw
	oidStr := func(o oms.OID) string { return strconv.FormatInt(int64(o), 10) }
	lsn := strconv.FormatUint(group[0].Group, 10)
	// Group-scoped link lookup: a checkin's doHasVersion link and a
	// derivation's precedes link commit in the same group as the create
	// they qualify.
	linkTo := func(rel string, to oms.OID) (oms.OID, bool) {
		for _, c := range group {
			if c.Kind == oms.ChangeLink && c.Rel == rel && c.To == to {
				return c.From, true
			}
		}
		return oms.InvalidOID, false
	}
	// Tagged switch over the kind, exhaustive by construction: adding a
	// sixth ChangeKind fails the kindswitch lint here until the notifier
	// decides what (if anything) it means for subscribers.
	for _, c := range group {
		switch c.Kind {
		case oms.ChangeCreate:
			switch c.Class {
			case "DesignObjectVersion":
				do, ok := linkTo(fw.rel.doHasVersion, c.OID)
				if !ok {
					// A version created without its ownership link in the
					// same group cannot be attributed; skip rather than
					// misreport.
					continue
				}
				n.publish(itc.Message{Topic: TopicCheckin, From: NotifierTool, Fields: map[string]string{
					"dov": oidStr(c.OID), "do": oidStr(do), "lsn": lsn,
				}})
			case "Variant":
				cv, _ := linkTo(fw.rel.hasVariant, c.OID)
				fields := map[string]string{"variant": oidStr(c.OID), "cv": oidStr(cv), "lsn": lsn}
				if from, derived := linkTo(fw.rel.variantPrecedes, c.OID); derived {
					fields["from"] = oidStr(from)
				} else {
					continue // original variants are part of cell version setup, not derivations
				}
				n.publish(itc.Message{Topic: TopicVariant, From: NotifierTool, Fields: fields})
			}
		case oms.ChangeSet:
			if c.Class != "CellVersion" {
				continue
			}
			switch c.Attr {
			case "published":
				if c.Value.Kind == oms.KindBool && c.Value.Bool {
					n.publish(itc.Message{Topic: TopicPublish, From: NotifierTool, Fields: map[string]string{
						"cv": oidStr(c.OID), "lsn": lsn,
					}})
				}
			case "reservedBy":
				action := "reserved"
				if c.Value.Str == "" {
					action = "released"
				}
				n.publish(itc.Message{Topic: TopicReservation, From: NotifierTool, Fields: map[string]string{
					"cv": oidStr(c.OID), "user": c.Value.Str, "action": action, "lsn": lsn,
				}})
			}
		case oms.ChangeLink, oms.ChangeUnlink, oms.ChangeDelete:
			// Links are read group-scoped above (linkTo); no standalone
			// notifications for these kinds.
		}
	}
}

// --- change feed access ---------------------------------------------------

// FeedLSN returns the database's committed change-feed position. See
// oms.Store.FeedLSN.
func (fw *Framework) FeedLSN() uint64 { return fw.store.FeedLSN() }

// Watch subscribes to the framework database's change feed. See
// oms.Store.Watch.
func (fw *Framework) Watch(since uint64, buf int) (*oms.Subscription, error) {
	return fw.store.Watch(since, buf)
}
