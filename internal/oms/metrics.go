package oms

import (
	"repro/internal/obs"
)

// storeMetrics holds the store's latency instruments. The cells live by
// value inside Store (no registration required to record into them) and
// RegisterMetrics hands the registry pointers to the very same cells,
// so Stats-style views and /metrics scrapes can never disagree.
type storeMetrics struct {
	// applyLatency times Store.Apply end to end (all five phases).
	applyLatency obs.Histogram
	// applyReplicated times Store.ApplyReplicated end to end.
	applyReplicated obs.Histogram
	// stripeWait samples the wall time spent acquiring stripe write
	// locks in Apply's masked lock phase, which every local write goes
	// through — the store's contention signal.
	stripeWait obs.Histogram
	// snapshotHold times how long Snapshot holds every stripe
	// read-locked (the consistent-cut capture window).
	snapshotHold obs.Histogram
	// stripeSampler thins stripeWait to one acquisition in
	// stripeWaitStride.
	stripeSampler obs.Sampler
}

// stripeWaitStride thins stripe-wait timing to one acquisition in 64:
// two clock reads on every lock acquisition would be measurable at the
// contention benchmark's rates, and a 1/64 sample still fills the
// histogram within milliseconds under load.
const stripeWaitStride = 64

// FeedStats is a point-in-time view of the change-feed ring, read
// entirely from atomic mirrors maintained under feed.mu — taking it
// never touches the feed lock, so scrapes cannot contend with commits.
type FeedStats struct {
	// Depth is the number of records the ring currently retains.
	Depth uint64
	// Watermark is the highest committed LSN (== FeedLSN).
	Watermark uint64
	// Subscribers is the number of live Watch subscriptions.
	Subscribers int64
	// Evictions counts records dropped from the ring by the capacity or
	// blob-byte bound.
	Evictions int64
	// LagTrips counts subscriptions closed Lagged — consumers that fell
	// behind the retention window and had to resynchronize.
	LagTrips int64
}

// FeedStats returns the feed view.
func (st *Store) FeedStats() FeedStats {
	f := st.feed
	last, start := f.lastA.Load(), f.startA.Load()
	var depth uint64
	if last >= start {
		depth = last - start + 1
	}
	return FeedStats{
		Depth:       depth,
		Watermark:   last,
		Subscribers: f.subsA.Load(),
		Evictions:   f.evictions.Load(),
		LagTrips:    f.lagTrips.Load(),
	}
}

// RegisterMetrics exposes the store's instrument cells in reg. The
// gauge functions read only atomics, so a scrape never blocks a writer.
func (st *Store) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("oms_ops_total", &st.statOps)
	reg.RegisterCounter("oms_blob_logical_in_bytes_total", &st.statBlobIn)
	reg.RegisterCounter("oms_blob_logical_out_bytes_total", &st.statBlobOut)
	reg.RegisterCounter("oms_blob_inline_bytes_total", &st.statBlobPhys)
	reg.RegisterHistogram("oms_apply_ns", &st.metrics.applyLatency)
	reg.RegisterHistogram("oms_apply_replicated_ns", &st.metrics.applyReplicated)
	reg.RegisterHistogram("oms_stripe_wait_ns", &st.metrics.stripeWait)
	reg.RegisterHistogram("oms_snapshot_hold_ns", &st.metrics.snapshotHold)
	f := st.feed
	reg.RegisterGaugeFunc("oms_feed_depth", func() int64 {
		last, start := f.lastA.Load(), f.startA.Load()
		if last < start {
			return 0
		}
		return int64(last - start + 1)
	})
	reg.RegisterGaugeFunc("oms_feed_watermark", func() int64 { return int64(f.lastA.Load()) })
	reg.RegisterGaugeFunc("oms_feed_subscribers", func() int64 { return f.subsA.Load() })
	reg.RegisterCounter("oms_feed_evictions_total", &f.evictions)
	reg.RegisterCounter("oms_feed_lag_trips_total", &f.lagTrips)
	if st.blobs != nil {
		st.blobs.RegisterMetrics(reg)
	}
}
