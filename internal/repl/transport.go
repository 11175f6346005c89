// Package repl is the primary→replica replication subsystem: it streams
// the OMS change feed (internal/oms/feed.go) from one writable primary
// store to any number of read-only follower stores on other goroutines,
// processes or machines.
//
// The moving parts:
//
//   - A Publisher wraps the primary store. Each follower session opens
//     with the follower's resume LSN; the publisher serves the session
//     straight from the feed ring when it still retains that position,
//     and otherwise bootstraps the follower — preferably by shipping the
//     already-encoded base + delta chain of the persistence layer's
//     commit manifest (backend.Manifest), falling back to a fresh
//     consistent-cut snapshot — then tails Store.Watch.
//
//   - A Replica dials the publisher, applies frames with
//     Store.ApplyReplicated in strict LSN order (a gap or a corrupt
//     frame never applies partially — the replica re-bootstraps), and
//     republishes them into its own feed at the primary's LSNs, so the
//     follower store is a full citizen: local Watch consumers work,
//     AppliedLSN == FeedLSN, and WaitFor gives read-your-writes
//     barriers. Promote detaches the follower into a writable primary.
//
//   - A Transport is the pair (Listener, Dialer) moving Frames between
//     the two. Two implementations ship: an in-process pipe for tests
//     and benchmarks, and TCP with reconnect + resume-from-LSN for real
//     deployment. Reconnect is the replica's job: every (re)connect is
//     an ordinary session whose hello carries the applied LSN, so a
//     killed transport costs at most a re-served suffix.
//
// Read-only query service on a follower is the jcf layer's business:
// jcf.NewReplicaView wraps a Replica's store in a Framework that rejects
// every mutation with jcf.ErrReadOnlyReplica.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/oms/blobstore"
)

// FrameType tags one replication frame.
type FrameType byte

// Frame types.
const (
	// FrameHello opens a session (replica → publisher). LSN carries the
	// replica's applied position — the publisher resumes after it — and
	// Payload is one flags byte.
	FrameHello FrameType = 1 + iota
	// FrameSnapshot carries a full base snapshot (an oms
	// Snapshot.Encode or MergeCheckpoint payload); LSN is the
	// snapshot's change-feed position. The replica replaces its whole
	// store with it. A chain bootstrap ships the committed base as it
	// stands, so an older state dir's JSON base reaches the replica,
	// which refuses it with backend.ErrOldFormat (see Replica.Err).
	FrameSnapshot
	// FrameChanges carries one or more whole commit groups as binary
	// change records (an oms.EncodeChanges payload); LSN is the
	// publisher's committed watermark at send time (the replica's lag
	// reference). A chain bootstrap ships committed deltas verbatim; a
	// JSON one is refused like a JSON base.
	FrameChanges
	// FrameBlobFetch asks the publisher for one content-addressed blob
	// (replica → publisher). Payload is a 40-byte blobstore.EncodeRef;
	// LSN is unused. Replicas send it lazily — the change feed carries
	// only refs, so a blob crosses the wire the first time a follower
	// actually reads it.
	FrameBlobFetch
	// FrameBlob answers a FrameBlobFetch (publisher → replica). Payload
	// is the echoed 40-byte ref, one status byte (blobFound/blobMissing),
	// and — when found — the blob bytes, so a legitimate zero-length blob
	// is distinguishable from a miss. LSN is unused. The replica verifies
	// the digest before accepting.
	FrameBlob
)

// FrameBlob status byte: does the publisher hold the requested blob?
const (
	blobMissing byte = 0
	blobFound   byte = 1
)

// helloNeedSnapshot asks the publisher for an unconditional bootstrap:
// the replica considers its store unusable (a frame failed mid-apply)
// and resuming from its LSN would replicate the damage.
const helloNeedSnapshot byte = 1 << 0

// Frame is one replication protocol message.
type Frame struct {
	Type    FrameType
	LSN     uint64
	Payload []byte
}

// Conn is one bidirectional frame connection. Send and Recv may be
// called from different goroutines; Close unblocks both sides.
type Conn interface {
	Send(f Frame) error
	Recv() (Frame, error)
	Close() error
}

// Listener accepts follower connections on the publisher side.
type Listener interface {
	Accept() (Conn, error)
	// Addr names the listening endpoint (for dialers and diagnostics).
	Addr() string
	Close() error
}

// Dialer opens connections from the replica side. The replica redials
// through it on every reconnect, so a Dialer must stay usable after a
// failed or closed connection.
type Dialer interface {
	Dial() (Conn, error)
}

// ErrClosed is returned by transport operations on a closed endpoint.
var ErrClosed = errors.New("repl: transport closed")

// maxFramePayload bounds a decoded frame's payload so a corrupt or
// hostile length prefix cannot force an arbitrary allocation. It is
// derived from the blob limit so the largest legal frame — a FrameBlob
// answer carrying a maximum-size blob behind its ref and status byte —
// always fits; a hardcoded bound equal to MaxBlobSize would make such
// blobs unservable (the send fails, the session dies, and the replica
// re-fetches in a reconnect loop forever).
const maxFramePayload = blobstore.MaxBlobSize + blobstore.EncodedRefSize + 1

// frameHeaderSize is the wire header: type byte, 8-byte LSN, 4-byte
// payload length, all big-endian.
const frameHeaderSize = 1 + 8 + 4

// writeFrame renders f onto a byte stream in the length-prefixed wire
// format shared by every stream transport.
func writeFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > maxFramePayload {
		return fmt.Errorf("repl: frame payload %d exceeds limit", len(f.Payload))
	}
	var hdr [frameHeaderSize]byte
	hdr[0] = byte(f.Type)
	binary.BigEndian.PutUint64(hdr[1:9], f.LSN)
	binary.BigEndian.PutUint32(hdr[9:13], uint32(len(f.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(f.Payload)
	return err
}

// readFrame parses one frame off a byte stream. A truncated header or
// payload returns an error (io.ErrUnexpectedEOF for a short read mid-
// frame), never a partial frame.
func readFrame(r io.Reader) (Frame, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	f := Frame{Type: FrameType(hdr[0]), LSN: binary.BigEndian.Uint64(hdr[1:9])}
	n := binary.BigEndian.Uint32(hdr[9:13])
	if n > maxFramePayload {
		return Frame{}, fmt.Errorf("repl: frame payload length %d exceeds limit", n)
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
	}
	return f, nil
}
