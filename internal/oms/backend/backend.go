// Package backend defines the pluggable storage layer the persistence
// subsystem writes snapshots through — the "copy interface to the
// database/file system" responsibility the paper assigns to the JCF
// master (section 2.1), factored out so the framework above never cares
// how bytes reach disk.
//
// A Backend stores named, opaque payloads. The single contract every
// implementation must honour is that Put is atomic and durable at the
// name level: a reader (including one that opens the directory after a
// crash) observes either the previous payload of a name or the new one,
// never a torn mixture. The framework builds its crash-consistent commit
// protocol on exactly that property: it Puts the snapshot payloads under
// fresh epoch-qualified names and then Puts one small manifest naming the
// pair — the manifest Put is the commit point.
//
// Two implementations ship:
//
//   - File: one file per name, written via temp file + atomic rename —
//     the classic UNIX snapshot layout.
//   - Segment: an append-only segment (write-ahead) log. Put appends a
//     framed, checksummed record and Delete a tombstone frame; the
//     frame's fsync is the commit. A MANIFEST checkpoint of the name
//     index is written only when a segment rotates, and opening replays
//     the frames after it up to the first short or bad one.
//
// Both pass the same conformance suite (see Conformance).
package backend

import (
	"errors"
	"fmt"
	"strings"
)

// ErrNotFound is returned by Get for a name that has no stored payload.
var ErrNotFound = errors.New("backend: name not found")

// Backend stores named snapshot payloads. Implementations must be safe
// for concurrent use.
type Backend interface {
	// Put atomically stores payload under name, replacing any previous
	// payload. Once Put returns, a crash must not lose the new payload or
	// resurrect a torn one.
	Put(name string, payload []byte) error
	// Get returns the most recently Put payload for name. The returned
	// slice is private to the caller. Missing names return ErrNotFound.
	Get(name string) ([]byte, error)
	// List returns every name that currently has a payload, sorted.
	List() ([]string, error)
	// Delete removes a name. Deleting an absent name is a no-op.
	Delete(name string) error
}

// DeltaCapable marks backends whose Put cost is dominated by payload
// size rather than by rewrite amplification — appending a small delta
// really is cheap. The segment/WAL backend qualifies (every Put is an
// append to the active segment and old records are retained until
// unreferenced); the one-file-per-name File backend does not gain
// anything from deltas beyond smaller files, so it leaves the interface
// unimplemented and the persistence layer keeps writing full snapshots
// through it.
type DeltaCapable interface {
	// SupportsDeltas reports that incremental (delta-chain) persistence
	// should be used against this backend.
	SupportsDeltas() bool
}

// checkName rejects names that could escape the backend's directory or
// collide with its internal bookkeeping files.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("backend: empty name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '-' || r == '_' || r == '@':
		default:
			return fmt.Errorf("backend: invalid name %q (allowed: letters, digits, . - _ @)", name)
		}
	}
	if strings.HasPrefix(name, ".") {
		return fmt.Errorf("backend: invalid name %q (must not start with a dot)", name)
	}
	return nil
}
