package jcf

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/oms"
	"repro/internal/oms/backend"
	"repro/internal/oms/blobstore"
)

// Stress and crash-window tests for the content-addressed checkin
// pipeline (ISSUE 9). Run under -race by `make stress-blob`.

const blobSpillAt = 64

// newBlobWorld is newWorld plus an enabled blob store on a file backend.
// The tests that save do so through the same backend, so blob-<digest>
// names share it with the manifest epochs. A state dir is a segment
// log, so outside tests the blob CAS lives in a directory of its own.
func newBlobWorld(t *testing.T) (*world, backend.Backend) {
	t.Helper()
	w := newWorld(t, Release30)
	be, err := backend.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.fw.EnableBlobStore(be, blobSpillAt); err != nil {
		t.Fatal(err)
	}
	return w, be
}

// checkInBytes runs one CheckInData with data staged to a real file.
func checkInBytes(t *testing.T, fw *Framework, dir, user string, do oms.OID, data []byte) (oms.OID, error) {
	t.Helper()
	src := filepath.Join(dir, fmt.Sprintf("src-%d", do))
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return fw.CheckInData(user, do, src)
}

// TestStressBlobDedupConcurrentCheckins: designers hammer concurrent
// checkins, half with content A and half with content B. Dedup must
// collapse the CAS to exactly two physical blobs without ever
// cross-wiring a version to the other goroutine's content, and Publish
// (the durability gate) must drain every async upload first.
func TestStressBlobDedupConcurrentCheckins(t *testing.T) {
	w, _ := newBlobWorld(t)
	fw := w.fw
	v1 := fw.Variants(w.cv)[0]
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	contentA := bytes.Repeat([]byte("layout-a "), 4096)
	contentB := bytes.Repeat([]byte("layout-b "), 4096)

	const designers = 8
	const perDesigner = 6
	dir := t.TempDir()
	dos := make([]oms.OID, designers)
	for i := range dos {
		do, err := fw.CreateDesignObject(v1, fmt.Sprintf("alu-%d", i), w.layVT)
		if err != nil {
			t.Fatal(err)
		}
		dos[i] = do
	}
	want := sync.Map{} // dov -> expected content
	var wg sync.WaitGroup
	errs := make(chan error, designers)
	for i := 0; i < designers; i++ {
		content := contentA
		if i%2 == 1 {
			content = contentB
		}
		src := filepath.Join(dir, fmt.Sprintf("designer-%d", i))
		if err := os.WriteFile(src, content, 0o644); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(do oms.OID, src string, content []byte) {
			defer wg.Done()
			for j := 0; j < perDesigner; j++ {
				dov, err := fw.CheckInData("anna", do, src)
				if err != nil {
					errs <- err
					return
				}
				want.Store(dov, content)
			}
		}(dos[i], src, content)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Publish gates on every upload being durable; afterwards every
	// version must resolve to exactly the content its designer checked in.
	if err := fw.Publish("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	versions := 0
	want.Range(func(k, v any) bool {
		versions++
		dov, content := k.(oms.OID), v.([]byte)
		got, err := fw.store.BlobBytes(dov, "data")
		if err != nil {
			t.Fatalf("version %d: %v", dov, err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("version %d cross-wired: got %q.. want %q..", dov, got[:9], content[:9])
		}
		return true
	})
	if versions != designers*perDesigner {
		t.Fatalf("resolved %d versions, want %d", versions, designers*perDesigner)
	}

	// Two distinct contents -> exactly two physical blobs, whatever the
	// interleaving; everything else was a dedup hit.
	if n := fw.BlobStore().Count(); n != 2 {
		t.Fatalf("CAS holds %d blobs, want 2", n)
	}
	stats := fw.BlobStats()
	logical := int64(designers * perDesigner * len(contentA))
	if stats.LogicalIn != logical {
		t.Fatalf("LogicalIn = %d, want %d", stats.LogicalIn, logical)
	}
	if phys := int64(len(contentA) + len(contentB)); stats.PhysicalIn != phys {
		t.Fatalf("PhysicalIn = %d, want %d (dedup broken)", stats.PhysicalIn, phys)
	}
	if stats.DedupHits != int64(designers*perDesigner-2) {
		t.Fatalf("DedupHits = %d, want %d", stats.DedupHits, designers*perDesigner-2)
	}
}

// TestStressBlobCrashBeforeMetadataCommit: the crash window where the
// blob reached the CAS but the metadata batch never committed. The
// surviving state must load, verify every live ref, and sweep the
// orphaned bytes.
func TestStressBlobCrashBeforeMetadataCommit(t *testing.T) {
	w, be := newBlobWorld(t)
	fw := w.fw
	v1 := fw.Variants(w.cv)[0]
	do, err := fw.CreateDesignObject(v1, "alu-lay", w.layVT)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	live := bytes.Repeat([]byte("survivor "), 1024)
	if _, err := checkInBytes(t, fw, t.TempDir(), "anna", do, live); err != nil {
		t.Fatal(err)
	}
	if err := fw.Publish("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	// The crash: bytes durable in the CAS, metadata commit never happened.
	orphan, err := fw.BlobStore().PutBytes(bytes.Repeat([]byte("orphan "), 1024))
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.SaveTo(be); err != nil {
		t.Fatal(err)
	}

	// Restart. Load + EnableBlobStore must verify all live refs (the
	// orphan references nothing and must not fail verification).
	fw2, err := LoadFrom(be)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw2.EnableBlobStore(be, blobSpillAt); err != nil {
		t.Fatal(err)
	}
	if !fw2.BlobStore().Has(orphan) {
		t.Fatal("index rebuild lost the orphan blob")
	}
	swept, err := fw2.SweepBlobs()
	if err != nil {
		t.Fatal(err)
	}
	if swept != 1 {
		t.Fatalf("swept %d blobs, want 1 (the orphan)", swept)
	}
	if fw2.BlobStore().Has(orphan) {
		t.Fatal("orphan survived the sweep")
	}
	// The live version still resolves, digest-verified.
	dov := fw2.DesignObjectVersions(do)[0]
	got, err := fw2.store.BlobBytes(dov, "data")
	if err != nil || !bytes.Equal(got, live) {
		t.Fatalf("live blob lost after sweep: %v", err)
	}
}

// TestStressBlobCrashBeforeBlobDurability: the opposite window — the
// metadata ref committed but the blob never became durable. An
// UNPUBLISHED version may dangle (Load tolerates it; the designer
// re-checks-in), but Publish must refuse it, and a PUBLISHED version
// with a missing or corrupt blob must fail load-time verification.
func TestStressBlobCrashBeforeBlobDurability(t *testing.T) {
	w, be := newBlobWorld(t)
	fw := w.fw
	v1 := fw.Variants(w.cv)[0]
	do, err := fw.CreateDesignObject(v1, "alu-lay", w.layVT)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("not-yet-durable "), 1024)
	dov, err := checkInBytes(t, fw, t.TempDir(), "anna", do, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.SaveTo(be); err != nil {
		t.Fatal(err)
	}
	// Quiesce the async upload before inducing the crash — otherwise a
	// late upload could re-create the blob after the Delete below and
	// the simulated crash state (ref committed, blob absent) would not
	// hold. The scenario is about the resulting on-disk state.
	if err := fw.WaitBlobDurable(w.cv); err != nil {
		t.Fatal(err)
	}
	// The crash: delete the blob from the backend — as if the process
	// died before the async upload hit disk (the ref committed first).
	ref := blobstore.RefOf(data)
	if err := be.Delete(ref.Key()); err != nil {
		t.Fatal(err)
	}

	// Unpublished dangling ref: load succeeds, publishing refuses.
	fw2, err := LoadFrom(be)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw2.EnableBlobStore(be, blobSpillAt); err != nil {
		t.Fatalf("unpublished dangling ref must not fail load: %v", err)
	}
	if err := fw2.Publish("anna", w.cv); err == nil {
		t.Fatal("published a version whose blob is not durable")
	} else if !strings.Contains(err.Error(), "missing") {
		t.Fatalf("publish error = %v, want missing-blob refusal", err)
	}
	if _, err := fw2.store.BlobBytes(dov, "data"); err == nil {
		t.Fatal("dangling ref resolved")
	}

	// The designer recovers by re-checking-in the data; then publishing
	// works and a fresh load verifies clean.
	if _, err := checkInBytes(t, fw2, t.TempDir(), "anna", do, data); err != nil {
		t.Fatal(err)
	}
	if err := fw2.Publish("anna", w.cv); err != nil {
		t.Fatalf("publish after recovery: %v", err)
	}
	if err := fw2.SaveTo(be); err != nil {
		t.Fatal(err)
	}
	fw3, err := LoadFrom(be)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw3.EnableBlobStore(be, blobSpillAt); err != nil {
		t.Fatalf("clean state failed verification: %v", err)
	}

	// A PUBLISHED version must never survive load with a bad blob:
	// corrupt the stored bytes and verification has to fail loudly.
	if err := be.Put(ref.Key(), []byte("corrupted payload")); err != nil {
		t.Fatal(err)
	}
	fw4, err := LoadFrom(be)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw4.EnableBlobStore(be, blobSpillAt); err == nil {
		t.Fatal("load accepted a published version with a corrupt blob")
	}
	if err := be.Delete(ref.Key()); err != nil {
		t.Fatal(err)
	}
	fw5, err := LoadFrom(be)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw5.EnableBlobStore(be, blobSpillAt); err == nil {
		t.Fatal("load accepted a published version with a missing blob")
	}
}

// TestStressBlobSweepCheckinRace: the GC sweep races live checkins. A
// checkin that spills its blob, commits the ref, and drops its pin while
// a sweep is mid-flight must never lose the blob to that sweep (the
// sweep-fence + pin-before-put contract); every committed version must
// still resolve with a verified digest afterwards. Unique contents per
// checkin keep every round a fresh blob, so a stale live set would be
// fatal rather than masked by dedup.
func TestStressBlobSweepCheckinRace(t *testing.T) {
	w, _ := newBlobWorld(t)
	fw := w.fw
	v1 := fw.Variants(w.cv)[0]
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	const designers = 4
	const perDesigner = 12
	dir := t.TempDir()
	dos := make([]oms.OID, designers)
	for i := range dos {
		do, err := fw.CreateDesignObject(v1, fmt.Sprintf("alu-%d", i), w.layVT)
		if err != nil {
			t.Fatal(err)
		}
		dos[i] = do
	}
	want := sync.Map{} // dov -> expected content
	stop := make(chan struct{})
	var sweeper sync.WaitGroup
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := fw.SweepBlobs(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, designers)
	for i := 0; i < designers; i++ {
		wg.Add(1)
		go func(i int, do oms.OID) {
			defer wg.Done()
			for j := 0; j < perDesigner; j++ {
				content := bytes.Repeat([]byte(fmt.Sprintf("unique-%d-%d ", i, j)), 512)
				src := filepath.Join(dir, fmt.Sprintf("d%d-%d", i, j))
				if err := os.WriteFile(src, content, 0o644); err != nil {
					errs <- err
					return
				}
				dov, err := fw.CheckInData("anna", do, src)
				if err != nil {
					errs <- err
					return
				}
				want.Store(dov, content)
			}
		}(i, dos[i])
	}
	wg.Wait()
	close(stop)
	sweeper.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := fw.WaitBlobDurable(w.cv); err != nil {
		t.Fatal(err)
	}
	// One final sweep with everything quiesced, then every committed
	// version must still resolve to exactly its content.
	if _, err := fw.SweepBlobs(); err != nil {
		t.Fatal(err)
	}
	resolved := 0
	want.Range(func(k, v any) bool {
		resolved++
		dov, content := k.(oms.OID), v.([]byte)
		got, err := fw.store.BlobBytes(dov, "data")
		if err != nil {
			t.Fatalf("version %d lost its blob to the sweep: %v", dov, err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("version %d resolved to wrong content", dov)
		}
		return true
	})
	if resolved != designers*perDesigner {
		t.Fatalf("resolved %d versions, want %d", resolved, designers*perDesigner)
	}
}

// TestStressBlobPublishWaitsForUploads: Publish must block on in-flight
// uploads rather than racing them — checkins and publishes interleave
// from separate goroutines and every successfully published state must
// have durable data for all its versions.
func TestStressBlobPublishWaitsForUploads(t *testing.T) {
	w, _ := newBlobWorld(t)
	fw := w.fw
	v1 := fw.Variants(w.cv)[0]
	do, err := fw.CreateDesignObject(v1, "alu-lay", w.layVT)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for round := 0; round < 30; round++ {
		if err := fw.Reserve("anna", w.cv); err != nil {
			t.Fatal(err)
		}
		content := bytes.Repeat([]byte{byte('a' + round%26)}, 8192)
		dov, err := checkInBytes(t, fw, dir, "anna", do, content)
		if err != nil {
			t.Fatal(err)
		}
		// Publish immediately: the upload may still be in flight; the
		// durability gate must hold the publish until it lands.
		if err := fw.Publish("anna", w.cv); err != nil {
			t.Fatal(err)
		}
		v, ok, err := fw.store.Get(dov, "data")
		if err != nil || !ok {
			t.Fatalf("round %d: version lost its data: ok=%v err=%v", round, ok, err)
		}
		ref, err := v.AsBlobRef()
		if err != nil {
			t.Fatalf("round %d: published data is not a ref: %v", round, err)
		}
		if err := fw.BlobStore().Verify(ref); err != nil {
			t.Fatalf("round %d: published version not durable: %v", round, err)
		}
	}
}
