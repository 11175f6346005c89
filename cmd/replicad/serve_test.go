package main

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/jcf"
	"repro/internal/oms/backend"
)

// dirBytes maps each file name in dir to its content.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestServeRefusesFileLayoutStateDir: serve returns backend.ErrOldFormat
// for a state dir in the File backend's layout before it listens, and
// initialises nothing there. The listen address is held, so a serve
// that got as far as listening would fail with another error.
func TestServeRefusesFileLayoutStateDir(t *testing.T) {
	dir := t.TempDir()
	fw, err := jcf.New(jcf.Release40)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := backend.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.SaveTo(fb); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	err = serve([]string{"-state", dir, "-listen", held.Addr().String(), "-save-interval", "0"})
	if !errors.Is(err, backend.ErrOldFormat) {
		t.Fatalf("serve of a file-layout state dir: %v, want ErrOldFormat", err)
	}
	if got := dirBytes(t, dir); !reflect.DeepEqual(got, before) {
		t.Fatalf("serve wrote to the file-layout state dir: %d names before, %d after", len(before), len(got))
	}
}
