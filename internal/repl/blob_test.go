package repl

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"
	"time"

	"repro/internal/oms"
	"repro/internal/oms/backend"
	"repro/internal/oms/blobstore"
)

func openBackend(t *testing.T) *backend.File {
	t.Helper()
	be, err := backend.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return be
}

// blobWorld wires a primary with a CAS (spilling at 64 bytes) to a
// replica with its own empty CAS over a pipe transport.
func blobWorld(t *testing.T) (st *oms.Store, rep *Replica, cell oms.OID, data []byte) {
	t.Helper()
	st = oms.NewStore(testSchema(t))
	pbs, err := blobstore.New(openBackend(t))
	if err != nil {
		t.Fatal(err)
	}
	st.AttachBlobs(pbs, 64)
	cell, err = createOne(st, "Cell", map[string]oms.Value{"name": oms.S("alu")})
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Repeat([]byte("design-bytes "), 512)
	b := oms.NewBatch()
	b.CopyInBytes(cell, "data", data)
	if _, err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	v, ok, err := st.Get(cell, "data")
	if err != nil || !ok || v.Kind != oms.KindBlobRef {
		t.Fatalf("primary did not spill: v=%v ok=%v err=%v", v, ok, err)
	}

	_, d := startPipePublisher(t, st)
	rbs, err := blobstore.New(openBackend(t))
	if err != nil {
		t.Fatal(err)
	}
	rep = NewReplica(testSchema(t), d, WithReconnectBackoff(time.Millisecond), WithBlobStore(rbs))
	rep.Start()
	t.Cleanup(rep.Close)
	waitConverged(t, rep, st, 5*time.Second)
	return st, rep, cell, data
}

// TestReplicaBlobFetch: the feed replicates only the ref; the first read
// on the follower pulls the bytes over a FrameBlobFetch round-trip and
// caches them, so the second read is local.
func TestReplicaBlobFetch(t *testing.T) {
	_, rep, cell, data := blobWorld(t)

	// The replicated attribute is a ref, not bytes.
	v, ok, err := rep.Store().Get(cell, "data")
	if err != nil || !ok {
		t.Fatalf("replica missing data attr: ok=%v err=%v", ok, err)
	}
	if v.Kind != oms.KindBlobRef {
		t.Fatalf("replica holds %s, want a blob ref", v.Kind)
	}
	ref, err := v.AsBlobRef()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Store().Blobs().Has(ref) {
		t.Fatal("replica holds the blob before any read — feed shipped bytes, not a ref")
	}

	// First read fetches and caches.
	got, err := rep.Store().BlobBytes(cell, "data")
	if err != nil {
		t.Fatalf("first read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("fetched blob differs: %d bytes vs %d", len(got), len(data))
	}
	if !rep.Store().Blobs().Has(ref) {
		t.Fatal("fetched blob was not cached locally")
	}
	if n := rep.Store().Blobs().Stats().FetchedBytes; n != int64(len(data)) {
		t.Fatalf("FetchedBytes = %d, want %d", n, len(data))
	}

	// Second read is served locally — the fetch counter must not move.
	if _, err := rep.Store().BlobBytes(cell, "data"); err != nil {
		t.Fatalf("second read: %v", err)
	}
	if n := rep.Store().Blobs().Stats().FetchedBytes; n != int64(len(data)) {
		t.Fatalf("second read re-fetched: FetchedBytes = %d", n)
	}
}

// TestReplicaBlobFetchMiss: asking for a digest the publisher does not
// hold fails cleanly (not-found travels back as a blobMissing status
// byte in the FrameBlob answer) and nothing gets cached.
func TestReplicaBlobFetchMiss(t *testing.T) {
	_, rep, _, _ := blobWorld(t)
	bogus := blobstore.Ref{Digest: sha256.Sum256([]byte("never stored")), Size: 12}
	if _, err := rep.Store().Blobs().Get(bogus); err == nil {
		t.Fatal("fetch of unknown blob succeeded")
	} else if !strings.Contains(err.Error(), "does not hold") {
		t.Fatalf("miss error = %v, want publisher not-found", err)
	}
	if rep.Store().Blobs().Has(bogus) {
		t.Fatal("miss cached a blob")
	}
}

// TestReplicaBlobFetchEmpty: a legitimate zero-length blob round-trips;
// the status byte keeps it distinguishable from a not-found answer.
func TestReplicaBlobFetchEmpty(t *testing.T) {
	st, rep, _, _ := blobWorld(t)
	ref, err := st.Blobs().PutBytes(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.Store().Blobs().Get(ref)
	if err != nil {
		t.Fatalf("empty blob fetch: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty blob came back with %d bytes", len(got))
	}
	if !rep.Store().Blobs().Has(ref) {
		t.Fatal("fetched empty blob was not cached")
	}
}

// TestFrameFitsMaxBlob pins the framing invariant: the payload bound
// must admit the largest legal FrameBlob answer (max-size blob behind
// its ref and status byte), or such a blob becomes unservable and the
// replica kills and redials the session forever.
func TestFrameFitsMaxBlob(t *testing.T) {
	if maxFramePayload < blobstore.MaxBlobSize+blobstore.EncodedRefSize+1 {
		t.Fatalf("maxFramePayload %d cannot carry a max-size FrameBlob (%d)",
			maxFramePayload, blobstore.MaxBlobSize+blobstore.EncodedRefSize+1)
	}
}

// TestReplicaBlobFetchConcurrent: many readers hitting the same cold ref
// coalesce on one waiter list; all get the verified bytes.
func TestReplicaBlobFetchConcurrent(t *testing.T) {
	_, rep, cell, data := blobWorld(t)
	const readers = 16
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() {
			got, err := rep.Store().BlobBytes(cell, "data")
			if err == nil && !bytes.Equal(got, data) {
				err = errFetchMismatch
			}
			errs <- err
		}()
	}
	for i := 0; i < readers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

var errFetchMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "fetched bytes differ from checked-in data" }
