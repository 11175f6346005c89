// Package blobstore is the content-addressed design-data store under the
// OMS: blobs are stored once per content (sha256), keyed by digest, on
// any backend.Backend. The OMS commits only a ~40-byte reference through
// its value/snapshot/feed/replication paths, so metadata traffic stops
// scaling with design size (ISSUE 9). Garbage is collected by liveness
// sweep — no refcounts to corrupt — and reads verify the digest, so a
// bit-rotted backend is detected, never silently served.
package blobstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
)

// Ref identifies a blob by content: its sha256 digest and its size. The
// size rides along so metadata consumers (DataSize, quota accounting,
// frame sizing) never need to touch the bulk bytes.
type Ref struct {
	Digest [32]byte
	Size   int64
}

// EncodedRefSize is the wire size of an encoded Ref: 32 digest bytes
// followed by the size as a big-endian uint64.
const EncodedRefSize = 32 + 8

// MaxBlobSize caps a single blob (and therefore a decoded Ref's size
// field) at the transport's frame-payload ceiling. A hostile size prefix
// beyond it is rejected at decode time, before anyone allocates.
const MaxBlobSize = 1 << 30

// keyPrefix namespaces blob entries on a shared backend. The manifest GC
// in jcf deletes only its own oms@/framework@/delta@ epochs, and Sweep
// here deletes only blob- names, so the two collectors never collide.
const keyPrefix = "blob-"

// RefOf computes the reference for a byte slice.
func RefOf(data []byte) Ref {
	return Ref{Digest: sha256.Sum256(data), Size: int64(len(data))}
}

// EncodeRef encodes r into the fixed 40-byte wire form.
func EncodeRef(r Ref) []byte {
	buf := make([]byte, EncodedRefSize)
	copy(buf[:32], r.Digest[:])
	binary.BigEndian.PutUint64(buf[32:], uint64(r.Size))
	return buf
}

// DecodeRef parses the 40-byte wire form. Truncated or oversized input
// and hostile size prefixes (negative when read as int64, or beyond
// MaxBlobSize) are errors.
func DecodeRef(buf []byte) (Ref, error) {
	if len(buf) != EncodedRefSize {
		return Ref{}, fmt.Errorf("blobstore: ref must be %d bytes, got %d", EncodedRefSize, len(buf))
	}
	var r Ref
	copy(r.Digest[:], buf[:32])
	size := binary.BigEndian.Uint64(buf[32:])
	if size > MaxBlobSize {
		return Ref{}, fmt.Errorf("blobstore: ref size %d exceeds %d-byte blob limit", size, MaxBlobSize)
	}
	r.Size = int64(size)
	return r, nil
}

// Hex returns the digest as lowercase hex — the form carried inside
// oms.Value and snapshot/feed JSON.
func (r Ref) Hex() string { return hex.EncodeToString(r.Digest[:]) }

// Key returns the backend name the blob is stored under.
func (r Ref) Key() string { return keyPrefix + r.Hex() }

// String renders a short form for errors and logs.
func (r Ref) String() string { return fmt.Sprintf("blob %s.. (%d bytes)", r.Hex()[:12], r.Size) }

// ParseHexRef rebuilds a Ref from the hex digest + size pair carried in
// oms values and snapshots.
func ParseHexRef(hexDigest string, size int64) (Ref, error) {
	d, ok := decodeDigest(hexDigest)
	if !ok {
		return Ref{}, fmt.Errorf("blobstore: bad digest %q", hexDigest)
	}
	if size < 0 || size > MaxBlobSize {
		return Ref{}, fmt.Errorf("blobstore: bad blob size %d", size)
	}
	return Ref{Digest: d, Size: size}, nil
}

// decodeDigest decodes a 64-digit hex digest straight into its array,
// without the intermediate slice hex.DecodeString allocates: the Publish
// gate parses one ref per spilled version on every publish.
func decodeDigest(s string) (d [32]byte, ok bool) {
	if len(s) != 2*len(d) {
		return d, false
	}
	for i := range d {
		hi, ok1 := unhex(s[2*i])
		lo, ok2 := unhex(s[2*i+1])
		if !ok1 || !ok2 {
			return d, false
		}
		d[i] = hi<<4 | lo
	}
	return d, true
}

// unhex returns the value of one hex digit, either case.
func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// parseKey inverts Ref.Key for index rebuilds and sweeps; ok is false
// for names that are not blob entries (manifests, epochs).
func parseKey(name string) (d [32]byte, ok bool) {
	hexPart, found := strings.CutPrefix(name, keyPrefix)
	if !found {
		return d, false
	}
	return decodeDigest(hexPart)
}
