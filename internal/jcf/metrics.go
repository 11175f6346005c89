package jcf

import (
	"repro/internal/obs"
)

// fwMetrics holds the framework's checkin-pipeline instruments. The
// cells live by value inside Framework; recording needs no registry and
// RegisterMetrics exposes pointers to the very same cells.
type fwMetrics struct {
	// checkinTotal times CheckInData end to end (the Span total).
	checkinTotal obs.Histogram
	// checkinRead times the design-file read stage.
	checkinRead obs.Histogram
	// checkinDigest times the spill stage: sha256, pin, ledger
	// registration and PutAsync enqueue (not the upload itself — that is
	// blob_upload_ns).
	checkinDigest obs.Histogram
	// checkinApply times the metadata batch's Store.Apply.
	checkinApply obs.Histogram
	// publishGate times Publish's upload-durability wait — how long a
	// publish stalls on the async pipeline draining.
	publishGate obs.Histogram
	// ledgerDepth counts uploads pending across all cell-version
	// ledgers (Publish's durability gate size).
	ledgerDepth obs.Gauge
	// save times a successful SaveTo end to end, saveMu wait excluded.
	save obs.Histogram
	// checkpointFull and checkpointOverlay count the saves that wrote a
	// full base and an overlay; checkpointBytes sums both kinds' payload
	// bytes.
	checkpointFull    obs.Counter
	checkpointOverlay obs.Counter
	checkpointBytes   obs.Counter
	// durableLSN is the FeedLSN of the last manifest SaveTo committed:
	// the feed watermark minus it is the acknowledged work a crash
	// would lose.
	durableLSN obs.Gauge
}

// RegisterMetrics exposes the framework's instrument cells in reg,
// along with those of its store and (when enabled) its blob store —
// one call wires the whole primary side.
func (fw *Framework) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterHistogram("jcf_checkin_ns", &fw.metrics.checkinTotal)
	reg.RegisterHistogram("jcf_checkin_read_ns", &fw.metrics.checkinRead)
	reg.RegisterHistogram("jcf_checkin_digest_ns", &fw.metrics.checkinDigest)
	reg.RegisterHistogram("jcf_checkin_apply_ns", &fw.metrics.checkinApply)
	reg.RegisterHistogram("jcf_publish_gate_ns", &fw.metrics.publishGate)
	reg.RegisterGauge("jcf_upload_ledger_depth", &fw.metrics.ledgerDepth)
	reg.RegisterCounter("jcf_reserve_conflicts_total", &fw.statReserveConflicts)
	reg.RegisterHistogram("jcf_save_ns", &fw.metrics.save)
	reg.RegisterCounter("jcf_checkpoint_full_total", &fw.metrics.checkpointFull)
	reg.RegisterCounter("jcf_checkpoint_overlay_total", &fw.metrics.checkpointOverlay)
	reg.RegisterCounter("jcf_checkpoint_bytes_total", &fw.metrics.checkpointBytes)
	reg.RegisterGauge("jcf_durable_lsn", &fw.metrics.durableLSN)
	fw.store.RegisterMetrics(reg)
}
