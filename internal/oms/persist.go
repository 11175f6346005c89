package oms

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The legacy JSON formats. Base snapshots (before snapcodec.go) and
// change records (before changecodec.go) were JSON. Both are only
// decoded now, so older state directories, and the bases and deltas a
// chain bootstrap ships from them to replicas, still load.

// snapshot is the legacy JSON form of a Store.
type snapshot struct {
	NextOID OID            `json:"next_oid"`
	Objects []snapshotObj  `json:"objects"`
	Links   []snapshotLink `json:"links"`
}

type snapshotObj struct {
	OID   OID                  `json:"oid"`
	Class string               `json:"class"`
	Attrs map[string]snapValue `json:"attrs"`
}

// snapValue is the legacy JSON form of a Value, in snapshots and in
// change records.
type snapValue struct {
	Kind Kind   `json:"kind"`
	Str  string `json:"str,omitempty"`
	Int  int64  `json:"int,omitempty"`
	Bool bool   `json:"bool,omitempty"`
	Blob []byte `json:"blob,omitempty"`
}

type snapshotLink struct {
	Rel  string `json:"rel"`
	From OID    `json:"from"`
	To   OID    `json:"to"`
}

// DecodeSnapshot rebuilds a store from an encoded snapshot payload (the
// bytes Snapshot.Encode produced, or a legacy JSON snapshot), regardless
// of which storage backend held them. The payload is validated against
// the schema; unknown classes, attributes or relationships fail the
// decode.
func DecodeSnapshot(data []byte, schema *Schema) (*Store, error) {
	if bytes.HasPrefix(data, []byte(snapMagic)) {
		return decodeBinarySnapshot(data, schema)
	}
	return decodeJSONSnapshot(data, schema)
}

// decodeJSONSnapshot decodes the legacy JSON format.
func decodeJSONSnapshot(data []byte, schema *Schema) (*Store, error) {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	st := NewStore(schema)
	st.nextOID = snap.NextOID
	for _, so := range snap.Objects {
		cls := schema.class(so.Class)
		if cls == nil {
			return nil, fmt.Errorf("decode snapshot: unknown class %q", so.Class)
		}
		obj := newObject(so.OID, so.Class)
		for name, sv := range so.Attrs {
			def, ok := cls.attr(name)
			if !ok {
				return nil, fmt.Errorf("decode snapshot: class %q has no attribute %q", so.Class, name)
			}
			if !kindCompatible(def.Kind, sv.Kind) {
				return nil, fmt.Errorf("decode snapshot: attribute %s.%s wants %s, got %s", so.Class, name, def.Kind, sv.Kind)
			}
			obj.attrs[name] = Value{Kind: sv.Kind, Str: sv.Str, Int: sv.Int, Bool: sv.Bool, Blob: sv.Blob}
		}
		for _, def := range cls.Attrs {
			if def.Required {
				if _, ok := so.Attrs[def.Name]; !ok {
					return nil, fmt.Errorf("decode snapshot: class %q requires attribute %q", so.Class, def.Name)
				}
			}
		}
		s := st.stripeOf(so.OID)
		s.objects[so.OID] = obj
		s.addClass(so.Class, so.OID)
		if so.OID >= st.nextOID {
			st.nextOID = so.OID + 1
		}
	}
	// As in the binary decoder: checked links, nothing published.
	for _, l := range snap.Links {
		if _, err := st.linkLockedU(l.Rel, l.From, l.To); err != nil {
			return nil, fmt.Errorf("decode snapshot: %w", err)
		}
	}
	return st, nil
}

// wireChange is the legacy JSON form of a Change.
type wireChange struct {
	LSN   uint64               `json:"lsn"`
	Group uint64               `json:"group"`
	Kind  ChangeKind           `json:"kind"`
	OID   OID                  `json:"oid,omitempty"`
	Class string               `json:"class,omitempty"`
	Attrs map[string]snapValue `json:"attrs,omitempty"`
	Attr  string               `json:"attr,omitempty"`
	Value *snapValue           `json:"value,omitempty"`
	Rel   string               `json:"rel,omitempty"`
	From  OID                  `json:"from,omitempty"`
	To    OID                  `json:"to,omitempty"`
}

func fromSnapValue(sv snapValue) Value {
	return Value{Kind: sv.Kind, Str: sv.Str, Int: sv.Int, Bool: sv.Bool, Blob: sv.Blob}
}

// decodeJSONChanges decodes the legacy JSON change records. A set
// record without a value is rejected: the encoder always wrote one,
// and decoding it as the zero Value would silently blank a string
// attribute on a load or on a replica.
func decodeJSONChanges(data []byte) ([]Change, error) {
	var in []wireChange
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("oms: decode changes: %w", err)
	}
	out := make([]Change, 0, len(in))
	for _, w := range in {
		c := Change{
			LSN: w.LSN, Group: w.Group, Kind: w.Kind,
			OID: w.OID, Class: w.Class,
			Attr: w.Attr, Rel: w.Rel, From: w.From, To: w.To,
		}
		if w.Kind == ChangeSet && w.Value == nil {
			return nil, fmt.Errorf("oms: decode changes: set record lsn %d carries no value", w.LSN)
		}
		if w.Value != nil {
			c.Value = fromSnapValue(*w.Value)
		}
		if len(w.Attrs) > 0 {
			c.Attrs = make(map[string]Value, len(w.Attrs))
			for n, sv := range w.Attrs {
				c.Attrs[n] = fromSnapValue(sv)
			}
		}
		out = append(out, c)
	}
	return out, nil
}

// --- file-system staging ------------------------------------------------
//
// JCF encapsulation copies design data between the database and the UNIX
// file system ("the required data are copied to and from the database via
// the UNIX file system", section 2.1). Batch.CopyIn and CopyOut are that
// interface: an encapsulated tool only ever sees plain files.

// CopyOut writes the named blob attribute of object oid to dstPath, creating
// parent directories as needed. It returns the number of bytes copied.
// Note that even read-only tool access requires a CopyOut — the cost the
// paper complains about in section 3.6.
func (st *Store) CopyOut(oid OID, attr, dstPath string) (int64, error) {
	// The stored bytes go straight to the file: they never leave the
	// package, so Get's defensive copy would buy nothing.
	v, ok, err := st.getShared(oid, attr)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("oms: copy-out: object %d has no attribute %q", oid, attr)
	}
	data, err := st.resolveBlob(v)
	if err != nil {
		return 0, fmt.Errorf("oms: copy-out: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(dstPath), 0o755); err != nil {
		return 0, fmt.Errorf("oms: copy-out: %w", err)
	}
	if err := os.WriteFile(dstPath, data, 0o644); err != nil {
		return 0, fmt.Errorf("oms: copy-out: %w", err)
	}
	st.statBlobOut.Add(int64(len(data)))
	return int64(len(data)), nil
}
