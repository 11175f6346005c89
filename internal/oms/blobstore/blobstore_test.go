package blobstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/oms/backend"
)

func openStore(t *testing.T) (*Store, *backend.File) {
	t.Helper()
	be, err := backend.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(be)
	if err != nil {
		t.Fatal(err)
	}
	return s, be
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := openStore(t)
	data := []byte("a netlist of modest ambition")
	ref, err := s.PutBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Size != int64(len(data)) {
		t.Fatalf("ref size %d, want %d", ref.Size, len(data))
	}
	got, err := s.Get(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q", got)
	}
	if !s.Has(ref) {
		t.Fatal("Has reports stored blob missing")
	}
}

func TestDedupSingleWrite(t *testing.T) {
	s, _ := openStore(t)
	data := bytes.Repeat([]byte("dedup"), 1000)
	r1, err := s.PutBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.PutBytes(append([]byte(nil), data...))
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("identical content produced different refs: %v vs %v", r1, r2)
	}
	st := s.Stats()
	if st.PhysicalBytes != int64(len(data)) {
		t.Fatalf("physical bytes %d, want one copy (%d)", st.PhysicalBytes, len(data))
	}
	if st.DedupHits != 1 {
		t.Fatalf("dedup hits %d, want 1", st.DedupHits)
	}
	if s.Count() != 1 {
		t.Fatalf("store holds %d blobs, want 1", s.Count())
	}
}

func TestConcurrentIdenticalPuts(t *testing.T) {
	s, _ := openStore(t)
	data := bytes.Repeat([]byte("race"), 4096)
	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.PutBytes(data)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	if st := s.Stats(); st.PhysicalBytes != int64(len(data)) {
		t.Fatalf("physical bytes %d after %d identical puts, want %d", st.PhysicalBytes, writers, len(data))
	}
}

func TestDigestVerifiedOnRead(t *testing.T) {
	s, be := openStore(t)
	ref, err := s.PutBytes([]byte("pristine content"))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the backend copy behind the store's back.
	if err := be.Put(ref.Key(), []byte("tampered content!")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ref); err == nil {
		t.Fatal("Get served corrupted bytes without error")
	}
	if err := s.Verify(ref); err == nil {
		t.Fatal("Verify passed corrupted blob")
	}
}

func TestIndexRebuildOnLoad(t *testing.T) {
	dir := t.TempDir()
	be, err := backend.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(be)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s1.PutBytes([]byte("persisted across opens"))
	if err != nil {
		t.Fatal(err)
	}
	// A fresh store on the same backend sees the blob via List alone.
	be2, err := backend.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(be2)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(ref) {
		t.Fatal("rebuilt index lost the blob")
	}
	got, err := s2.Get(ref)
	if err != nil || !bytes.Equal(got, []byte("persisted across opens")) {
		t.Fatalf("rebuilt store read: %q, %v", got, err)
	}
	// Foreign names on the shared backend are not confused for blobs.
	if err := be2.Put("oms@7", []byte("epoch payload")); err != nil {
		t.Fatal(err)
	}
	s3, err := New(be2)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Count() != 1 {
		t.Fatalf("index counted foreign names: %d", s3.Count())
	}
}

func TestPutAsyncDeliversAndDedups(t *testing.T) {
	s, _ := openStore(t)
	data := bytes.Repeat([]byte("async"), 2048)
	done := make(chan error, 2)
	ref, release := s.PutAsync(data, func(err error) { done <- err })
	if ref != RefOf(data) {
		t.Fatal("PutAsync returned wrong ref")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The upload is durable but the caller's pin is still held: a sweep
	// with an empty live set must not touch it until release.
	if n, err := s.Sweep(nil); err != nil || n != 0 {
		t.Fatalf("sweep collected an unreleased async put: n=%d err=%v", n, err)
	}
	release()
	// Second async put of the same content is a dedup hit.
	_, release2 := s.PutAsync(append([]byte(nil), data...), func(err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	release2()
	st := s.Stats()
	if st.PhysicalBytes != int64(len(data)) || st.DedupHits != 1 {
		t.Fatalf("async stats: physical %d dedup %d", st.PhysicalBytes, st.DedupHits)
	}
}

func TestPutBytesPinnedProtectsUntilRelease(t *testing.T) {
	s, _ := openStore(t)
	ref, release, err := s.PutBytesPinned([]byte("pinned before the backend write"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.Sweep(nil); err != nil || n != 0 {
		t.Fatalf("sweep collected a pinned put: n=%d err=%v", n, err)
	}
	if !s.Has(ref) {
		t.Fatal("pinned blob missing")
	}
	release()
	if n, err := s.Sweep(nil); err != nil || n != 1 {
		t.Fatalf("post-release sweep: n=%d err=%v", n, err)
	}
}

func TestSweepRemovesOnlyDeadBlobs(t *testing.T) {
	s, be := openStore(t)
	live, err := s.PutBytes([]byte("still referenced"))
	if err != nil {
		t.Fatal(err)
	}
	orphan, err := s.PutBytes([]byte("crashed before metadata commit"))
	if err != nil {
		t.Fatal(err)
	}
	pinnedRef, err := s.PutBytes([]byte("upload done, apply pending"))
	if err != nil {
		t.Fatal(err)
	}
	s.Pin(pinnedRef)

	scan := func() map[[32]byte]bool { return map[[32]byte]bool{live.Digest: true} }
	removed, err := s.Sweep(scan)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("swept %d, want 1", removed)
	}
	if !s.Has(live) || s.Has(orphan) || !s.Has(pinnedRef) {
		t.Fatalf("sweep kept wrong set: live=%v orphan=%v pinned=%v", s.Has(live), s.Has(orphan), s.Has(pinnedRef))
	}
	if _, err := be.Get(orphan.Key()); !errors.Is(err, backend.ErrNotFound) {
		t.Fatalf("orphan still on backend: %v", err)
	}
	// After the unpin the pinned blob is collectible like any other.
	s.Unpin(pinnedRef)
	if removed, err = s.Sweep(scan); err != nil || removed != 1 {
		t.Fatalf("post-unpin sweep: removed=%d err=%v", removed, err)
	}
}

// TestSweepCommitRace: a commit of content a concurrent sweep has
// condemned must wait out the sweep's backend Delete and rewrite, so the
// store can never report a blob present whose bytes the sweep destroyed.
func TestSweepCommitRace(t *testing.T) {
	s, be := openStore(t)
	data := []byte("contended content")
	ref := RefOf(data)
	for i := 0; i < 100; i++ {
		if _, err := s.PutBytes(data); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := s.Sweep(nil); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := s.PutBytes(data); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if s.Has(ref) {
			if _, err := be.Get(ref.Key()); err != nil {
				t.Fatalf("round %d: store reports %s present but the bytes are gone: %v", i, ref, err)
			}
		}
		if _, err := s.Sweep(nil); err != nil { // reset for the next round
			t.Fatal(err)
		}
	}
}

func TestFetcherServesAndCachesMisses(t *testing.T) {
	remote, _ := openStore(t)
	payload := bytes.Repeat([]byte("remote design"), 512)
	ref, err := remote.PutBytes(payload)
	if err != nil {
		t.Fatal(err)
	}

	local, _ := openStore(t)
	fetches := 0
	local.SetFetcher(func(r Ref) ([]byte, error) {
		fetches++
		return remote.Get(r)
	})
	got, err := local.Get(ref)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("fetch miss: %v", err)
	}
	if _, err := local.Get(ref); err != nil {
		t.Fatal(err)
	}
	if fetches != 1 {
		t.Fatalf("fetched %d times, want 1 (second read must be local)", fetches)
	}

	// A lying fetcher is caught by digest verification.
	evil, _ := openStore(t)
	evil.SetFetcher(func(r Ref) ([]byte, error) { return []byte("not the real bytes"), nil })
	if _, err := evil.Get(ref); err == nil {
		t.Fatal("poisoned fetch served without error")
	}
	if evil.Has(ref) {
		t.Fatal("poisoned fetch was cached")
	}
}

func TestGetMissWithoutFetcher(t *testing.T) {
	s, _ := openStore(t)
	_, err := s.Get(RefOf([]byte("never stored")))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestSweepSkipsForeignNames(t *testing.T) {
	dir := t.TempDir()
	be, err := backend.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := be.Put("framework@3", []byte("epoch")); err != nil {
		t.Fatal(err)
	}
	s, err := New(be)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutBytes([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sweep(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "framework@3")); err != nil {
		t.Fatalf("sweep touched a manifest epoch: %v", err)
	}
}

func TestRefEncoding(t *testing.T) {
	ref := RefOf([]byte("wire format"))
	buf := EncodeRef(ref)
	if len(buf) != EncodedRefSize {
		t.Fatalf("encoded %d bytes", len(buf))
	}
	back, err := DecodeRef(buf)
	if err != nil || back != ref {
		t.Fatalf("round trip: %v %v", back, err)
	}
	if _, err := DecodeRef(buf[:39]); err == nil {
		t.Fatal("truncated ref decoded")
	}
	parsed, err := ParseHexRef(ref.Hex(), ref.Size)
	if err != nil || parsed != ref {
		t.Fatalf("hex round trip: %v %v", parsed, err)
	}
	if _, err := ParseHexRef("zz", 1); err == nil {
		t.Fatal("bad hex parsed")
	}
	if upper, err := ParseHexRef(strings.ToUpper(ref.Hex()), ref.Size); err != nil || upper != ref {
		t.Fatalf("upper-case hex: %v %v", upper, err)
	}
	if _, err := ParseHexRef(ref.Hex()[:63]+"g", ref.Size); err == nil {
		t.Fatal("non-hex digit parsed")
	}
	h := ref.Hex()
	if n := testing.AllocsPerRun(20, func() { _, _ = ParseHexRef(h, ref.Size) }); n != 0 {
		t.Fatalf("ParseHexRef allocates %v times, want 0", n)
	}
	if _, err := ParseHexRef(ref.Hex(), -1); err == nil {
		t.Fatal("negative size parsed")
	}
	if d, ok := parseKey(ref.Key()); !ok || d != ref.Digest {
		t.Fatal("key parse failed")
	}
	if _, ok := parseKey("oms@12"); ok {
		t.Fatal("foreign name parsed as blob key")
	}
}
