package backend

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// File is the atomic-rename file backend: every name is one regular file
// in the backend directory; Put writes a dot-prefixed temporary sibling
// and renames it into place, so a name always reads as exactly one
// complete payload — before or after, never torn. It backs the blob
// CAS; framework state dirs are Segment logs.
type File struct {
	dir string
}

// OpenFile opens (creating if needed) a file backend rooted at dir.
func OpenFile(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("backend: open file backend: %w", err)
	}
	return &File{dir: dir}, nil
}

// Dir returns the backend's root directory.
func (f *File) Dir() string { return f.dir }

// Put atomically stores payload under name.
func (f *File) Put(name string, payload []byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	if err := atomicWriteFile(f.dir, name, payload); err != nil {
		return fmt.Errorf("backend: put %s: %w", name, err)
	}
	return nil
}

// atomicWriteFile writes payload to dir/name with the full
// crash-and-concurrency discipline the Backend contract demands:
//
//   - the temp file is created with a unique dot-prefixed name
//     (checkName rejects leading dots, so it can never collide with a
//     stored name, and concurrent Puts of the same name never share it),
//   - the temp file is fsynced before the rename, so the rename can
//     never install a file whose bytes are still in flight, and
//   - the directory is fsynced after the rename, so the commit itself
//     survives a power loss.
func atomicWriteFile(dir, name string, payload []byte) error {
	if err := renameIntoPlace(dir, name, payload); err != nil {
		return err
	}
	return syncDir(dir)
}

// renameIntoPlace is atomicWriteFile without the final directory fsync:
// the new file is complete and renamed over name, but the rename may
// still be lost on a power failure until the caller syncs dir.
func renameIntoPlace(dir, name string, payload []byte) error {
	tmp, err := os.CreateTemp(dir, "."+name+".*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op once the rename has happened
	if _, err := tmp.Write(payload); err != nil {
		return errors.Join(err, tmp.Close())
	}
	if err := tmp.Sync(); err != nil {
		return errors.Join(err, tmp.Close())
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		return err
	}
	return os.Rename(tmpName, filepath.Join(dir, name))
}

// syncDir fsyncs a directory so a just-committed rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Get returns the payload stored under name.
func (f *File) Get(name string) ([]byte, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(f.dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		return nil, fmt.Errorf("backend: get %s: %w", name, err)
	}
	return data, nil
}

// List returns the stored names, sorted.
func (f *File) List() ([]string, error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("backend: list: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out, nil
}

// Delete removes a name; absent names are a no-op.
func (f *File) Delete(name string) error {
	if err := checkName(name); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(f.dir, name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("backend: delete %s: %w", name, err)
	}
	return nil
}
