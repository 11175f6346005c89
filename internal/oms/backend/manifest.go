package backend

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// The commit manifest — the one payload whose atomic replacement commits
// a (database, framework-metadata) snapshot pair, plus the base-epoch +
// delta-chain bookkeeping of differential commits.
//
// The format used to be private to the persistence layer (internal/jcf).
// It lives here, next to the Backend contract it depends on, because two
// layers consume the commit stream: the persistence layer writes and
// loads it, and the replication publisher (internal/repl) ships it —
// base snapshot plus encoded delta chain — to bootstrap remote follower
// stores without re-encoding the live database. Both read it through
// ReadChain, so they accept and refuse the same chains.

// ManifestKey is the reserved backend name of the commit manifest; its
// atomic Put is the commit point of every save epoch.
const ManifestKey = "CURRENT"

// Manifest names the payloads of one committed save epoch: the full base
// snapshot (OMS, cut at BaseLSN, written at BaseEpoch), an optional
// overlay checkpoint over it (Overlay, cut at OverlayLSN: the objects
// changed since BaseLSN, see oms.Overlay), the delta chain that replays
// from the checkpoint's cut (CutLSN), and the framework's release
// header. FeedLSN is the database's change-feed position as of this
// epoch — where the next differential save, a store loaded from this
// manifest, or a replica bootstrapped from it, continues from.
//
// A manifest with an overlay has deltas starting at OverlayLSN, not
// BaseLSN, so a reader that ignores the overlay fields refuses the
// chain (ReadChain's contiguity check) instead of loading the base
// without the overlay.
type Manifest struct {
	Epoch        int64      `json:"epoch"`
	OMS          string     `json:"oms"`
	Framework    string     `json:"framework"`
	OMSSum       string     `json:"oms_sha256"`
	FrameworkSum string     `json:"framework_sha256"`
	BaseEpoch    int64      `json:"base_epoch,omitempty"`
	BaseLSN      uint64     `json:"base_lsn,omitempty"`
	Overlay      string     `json:"overlay,omitempty"`
	OverlaySum   string     `json:"overlay_sha256,omitempty"`
	OverlayLSN   uint64     `json:"overlay_lsn,omitempty"`
	Deltas       []DeltaRef `json:"deltas,omitempty"`
	FeedLSN      uint64     `json:"feed_lsn,omitempty"`
}

// CutLSN is the feed position of the manifest's checkpoint — the base,
// folded with its overlay when there is one — and so where the delta
// chain starts.
func (m *Manifest) CutLSN() uint64 {
	if m.Overlay != "" {
		return m.OverlayLSN
	}
	return m.BaseLSN
}

// DeltaRef names one delta payload in a manifest's chain: the encoded
// change records with FromLSN < LSN <= ToLSN, as oms.EncodeChanges
// writes them.
type DeltaRef struct {
	Name    string `json:"name"`
	Sum     string `json:"sha256"`
	FromLSN uint64 `json:"from_lsn"`
	ToLSN   uint64 `json:"to_lsn"`
}

// PayloadNames returns every backend name the manifest references — what
// a garbage collector must retain and a mirror must copy.
func (m *Manifest) PayloadNames() []string {
	out := []string{m.OMS, m.Framework}
	if m.Overlay != "" {
		out = append(out, m.Overlay)
	}
	for _, d := range m.Deltas {
		out = append(out, d.Name)
	}
	return out
}

// LoadManifest reads and validates the commit manifest of a backend.
// Backends that have never committed return ErrNotFound (wrapped).
func LoadManifest(b Backend) (Manifest, error) {
	data, err := b.Get(ManifestKey)
	if err != nil {
		return Manifest{}, err
	}
	return DecodeManifest(data)
}

// DecodeManifest decodes and validates an encoded commit manifest — a
// CURRENT payload: the JSON EncodeManifest writes, compact or not.
func DecodeManifest(data []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("backend: corrupt manifest: %w", err)
	}
	if m.OMS == "" || m.Framework == "" {
		return m, fmt.Errorf("backend: corrupt manifest: missing payload names")
	}
	if m.Overlay == "" && (m.OverlaySum != "" || m.OverlayLSN != 0) {
		return m, fmt.Errorf("backend: corrupt manifest: overlay fields without an overlay name")
	}
	return m, nil
}

// EncodeManifest encodes a manifest as compact JSON, the CURRENT
// payload.
func EncodeManifest(m *Manifest) ([]byte, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("backend: encode manifest: %w", err)
	}
	return data, nil
}

// PutManifest commits a manifest: one atomic Put of ManifestKey.
func PutManifest(b Backend, m Manifest) error {
	data, err := EncodeManifest(&m)
	if err != nil {
		return err
	}
	return b.Put(ManifestKey, data)
}

// Chain is one committed epoch read back whole: its manifest and every
// payload the manifest names, each checksum-verified.
type Chain struct {
	Manifest Manifest
	// Framework is the release header payload.
	Framework []byte
	// Base is the full base snapshot, cut at Manifest.BaseLSN.
	Base []byte
	// Overlay is the overlay checkpoint over Base, cut at
	// Manifest.OverlayLSN, or nil when the manifest has none.
	// oms.MergeCheckpoint folds the two into the base at CutLSN.
	Overlay []byte
	// Deltas are the delta payloads in chain order (Manifest.Deltas[i]
	// names Deltas[i]).
	Deltas [][]byte
}

// ReadChain reads the committed epoch of a backend: the CURRENT
// manifest, the framework payload, the base, the overlay if any and
// each delta. Every payload's SHA-256 must match the manifest, an
// overlay must not be cut before its base, the first delta must start
// at the checkpoint's cut (CutLSN), each later one where the previous
// one ended, and the chain must end at the manifest's FeedLSN — a chain
// with a gap would rebuild incomplete history. A backend that has never
// committed returns ErrNotFound (wrapped).
func ReadChain(b Backend) (Chain, error) {
	m, err := LoadManifest(b)
	if err != nil {
		return Chain{}, err
	}
	get := func(name, sum string) ([]byte, error) {
		p, err := b.Get(name)
		if err != nil {
			return nil, fmt.Errorf("backend: manifest epoch %d: %w", m.Epoch, err)
		}
		if SHA256Hex(p) != sum {
			return nil, fmt.Errorf("backend: %s checksum mismatch (corrupt payload)", name)
		}
		return p, nil
	}
	c := Chain{Manifest: m}
	if c.Framework, err = get(m.Framework, m.FrameworkSum); err != nil {
		return Chain{}, err
	}
	if c.Base, err = get(m.OMS, m.OMSSum); err != nil {
		return Chain{}, err
	}
	if m.Overlay != "" {
		if m.OverlayLSN < m.BaseLSN {
			return Chain{}, fmt.Errorf("backend: overlay %s cut at %d, before its base at %d", m.Overlay, m.OverlayLSN, m.BaseLSN)
		}
		if c.Overlay, err = get(m.Overlay, m.OverlaySum); err != nil {
			return Chain{}, err
		}
	}
	at := m.CutLSN()
	for _, d := range m.Deltas {
		if d.FromLSN != at {
			return Chain{}, fmt.Errorf("backend: delta chain broken at %s: starts at %d, expected %d", d.Name, d.FromLSN, at)
		}
		p, err := get(d.Name, d.Sum)
		if err != nil {
			return Chain{}, err
		}
		c.Deltas = append(c.Deltas, p)
		at = d.ToLSN
	}
	if at != m.FeedLSN {
		return Chain{}, fmt.Errorf("backend: delta chain ends at %d, manifest feed at %d", at, m.FeedLSN)
	}
	return c, nil
}

// SHA256Hex returns the hex-encoded SHA-256 of a payload — the checksum
// format manifests carry.
func SHA256Hex(p []byte) string {
	sum := sha256.Sum256(p)
	return hex.EncodeToString(sum[:])
}
