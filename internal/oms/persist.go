package oms

import (
	"fmt"
	"os"
	"path/filepath"
)

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
